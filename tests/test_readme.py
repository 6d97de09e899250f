"""README's CLI examples, run as written: every config its ``## CLI`` section
writes (``cat > X <<'EOF'`` ... ``EOF`` or ``echo '...' > X``) and every
``magcurves`` command it shows, through ``cli.main`` in a temporary
directory; and its family table, against ``classify``'s."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from magcurves import classify, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_blocks() -> list[list[str]]:
    text = README.read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [block.splitlines() for block in re.findall(r"```sh\n(.*?)```", section, re.S)]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = []
    for lines in _cli_blocks():
        while lines:
            line = lines.pop(0)
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                end = lines.index("EOF")
                Path(heredoc[1]).write_text("\n".join(lines[:end]) + "\n")
                del lines[:end + 1]
                continue
            words = shlex.split(line)
            if words[0] == "echo":
                assert words[2:3] == [">"] and len(words) == 4, line
                Path(words[3]).write_text(words[1] + "\n")
            else:
                assert words[0] == "magcurves", line
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(words[1:]) == 0, line
                commands.append(words[1])
    assert set(commands) == {"integrate", "closed-form", "classify", "invert", "verify", "sweep"}


def test_readme_family_table_mirrors_classify():
    # one row per slant family, in dispatch order, with its invert case; a
    # literal | inside a cell is escaped, so that every row has five cells
    table = README.read_text().split("\n| family ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    cells = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in table]
    assert all(len(row) == 5 for row in cells), cells
    assert [(row[0].lower().replace(" ", "_"), row[-1]) for row in cells] == \
        [(family.kind.value, family.case) for family in classify._FAMILIES]
