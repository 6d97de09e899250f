"""The CLI's outputs against the digests and values of tests/golden.json
(``python tests/golden.py --update`` rewrites the table)."""
import copy

import golden


def test_outputs_match_the_golden_table(tmp_path):
    assert golden.mismatches(golden.outputs(tmp_path), golden.load()) == []


def test_value_comparison_finds_each_kind_of_change():
    outputs = golden.load()["outputs"]
    classify = outputs["classify0.stdout"]["values"]
    report = outputs["verify-seed0.stdout"]["values"]
    kappa1 = classify["measured"]["kappa1"]

    def differences(name, want, edit):
        got = copy.deepcopy(want)
        edit(got)
        return golden.value_differences(name, got, want)

    assert differences("classify0.stdout", classify, lambda v: None) == []
    assert differences("classify0.stdout", classify,
                       lambda v: v["measured"].update(kappa1=kappa1 * (1 + 1e-13))) == []
    assert differences("classify0.stdout", classify,
                       lambda v: v["measured"].update(kappa1=kappa1 * (1 + 1e-8))) != []
    assert differences("classify0.stdout", classify, lambda v: v.update({"class": "x"})) != []
    assert differences("classify0.stdout", classify, lambda v: v.update(epsilon=-1)) != []

    check = next(i for i, c in enumerate(report["checks"]) if c["tol"] == 1e-4)
    tol = report["checks"][check]["tol"]

    def shift_max_err(by):
        def edit(v):
            v["checks"][check]["max_err"] += by
        return edit

    assert differences("verify-seed0.stdout", report, shift_max_err(0.5e-3 * tol)) == []
    assert differences("verify-seed0.stdout", report, shift_max_err(2e-3 * tol)) != []
    assert differences("verify-seed0.stdout", report,
                       lambda v: v["checks"][check].update(passed=False)) != []
