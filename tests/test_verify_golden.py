"""Exact reports of the twist and strand checks: f1, rem2, f2, f3, E-vanishing.

Each report is pinned as the JSON text of ``to_json()`` in its own key order,
so a change to a verdict, a witness shape or the order of its keys shows up
here.  The failing reports come from a table with one extra Z_2 summand in
the first diagram of the claim, since the real tables all agree.
"""

import dataclasses
import json

import pytest

import khoma.verify
from khoma.cli import main
from khoma.diagram import torus_word
from khoma.homology import AbGroup
from khoma.verify import (
    check_e_vanishing,
    check_f1,
    check_f2,
    check_f3,
    check_rem2,
    e_diagram,
)

PINNED = [
    # pass
    (check_f1, (3, 4),
     '{"claim": "f1", "params": {"p": 3, "q": 4}, "verdict": "pass", '
     '"witness": {"i_below": 4, "mismatches": []}}'),
    (check_rem2, (3, 4),
     '{"claim": "rem2", "params": {"p": 3, "q": 4}, "verdict": "pass", '
     '"witness": {"i_below": 4, "mismatches": []}}'),
    (check_f2, (3, 5),
     '{"claim": "f2", "params": {"p": 3, "q": 5}, "verdict": "pass", '
     '"witness": {"i_below": 5, "mismatches": []}}'),
    # a single twist count: nothing to compare
    (check_f2, (3, 4),
     '{"claim": "f2", "params": {"p": 3, "q": 4}, "verdict": "pass", '
     '"witness": {"i_below": 5, "mismatches": []}}'),
    (check_f3, (2,),
     '{"claim": "f3", "params": {"p": 2}, "verdict": "pass", '
     '"witness": {"i_below": 1, "j_shift": 1, "mismatches": []}}'),
    (check_f3, (4,),
     '{"claim": "f3", "params": {"p": 4}, "verdict": "pass", '
     '"witness": {"i_below": 5, "j_shift": 1, "mismatches": []}}'),
    (check_e_vanishing, (3, 4, 1),
     '{"claim": "E-vanishing", "params": {"p": 3, "q": 4, "i": 1}, "verdict": "pass", '
     '"witness": {"i_below": 4, "nonzero": []}}'),
    # skipped
    (check_f1, (5, 9),
     '{"claim": "f1", "params": {"p": 5, "q": 9}, "verdict": "skipped", '
     '"witness": {"reason": "needs 36 crossings, limit is 16"}}'),
    (check_rem2, (5, 9),
     '{"claim": "rem2", "params": {"p": 5, "q": 9}, "verdict": "skipped", '
     '"witness": {"reason": "needs 36 crossings, limit is 16"}}'),
    (check_f2, (5, 9),
     '{"claim": "f2", "params": {"p": 5, "q": 9}, "verdict": "skipped", '
     '"witness": {"reason": "needs 36 crossings, limit is 16"}}'),
    (check_f3, (5,),
     '{"claim": "f3", "params": {"p": 5}, "verdict": "skipped", '
     '"witness": {"reason": "needs 20 crossings, limit is 16"}}'),
    (check_e_vanishing, (5, 9, 1),
     '{"claim": "E-vanishing", "params": {"p": 5, "q": 9, "i": 1}, "verdict": "skipped", '
     '"witness": {"reason": "needs 35 crossings, limit is 16"}}'),
]


@pytest.mark.parametrize("check,args,expected", PINNED)
def test_report_is_pinned(check, args, expected):
    assert json.dumps(check(*args).to_json()) == expected


FAILING = [
    (check_f1, (3, 4), torus_word(3, 4), (0, -1),
     '{"claim": "f1", "params": {"p": 3, "q": 4}, "verdict": "fail", '
     '"witness": {"i_below": 4, "mismatches": [{"i": 0, "j": -1, '
     '"left": {"rank": 1, "torsion": [2]}, "right": {"rank": 1, "torsion": []}}]}}'),
    (check_rem2, (3, 4), torus_word(3, 4), (0, -1),
     '{"claim": "rem2", "params": {"p": 3, "q": 4}, "verdict": "fail", '
     '"witness": {"i_below": 4, "mismatches": [{"i": 0, "j": -1, '
     '"left": {"rank": 1, "torsion": [2]}, "right": {"rank": 1, "torsion": []}}]}}'),
    # only the pair holding the altered table is listed
    (check_f2, (3, 6), torus_word(3, 4), (0, -1),
     '{"claim": "f2", "params": {"p": 3, "q": 6}, "verdict": "fail", '
     '"witness": {"i_below": 5, "mismatches": [{"pair": [5, 4], "mismatches": '
     '[{"i": 0, "j": -1, "left": {"rank": 1, "torsion": []}, '
     '"right": {"rank": 1, "torsion": [2]}}]}]}}'),
    (check_f3, (3,), torus_word(3, 3), (0, -1),
     '{"claim": "f3", "params": {"p": 3}, "verdict": "fail", '
     '"witness": {"i_below": 3, "j_shift": 1, "mismatches": [{"i": 0, "j": -1, '
     '"left": {"rank": 1, "torsion": [2]}, "right": {"rank": 1, "torsion": []}}]}}'),
    (check_e_vanishing, (3, 4, 1), e_diagram(3, 4, 1), (2, 3),
     '{"claim": "E-vanishing", "params": {"p": 3, "q": 4, "i": 1}, "verdict": "fail", '
     '"witness": {"i_below": 4, "nonzero": [{"i": 2, "j": 3, '
     '"group": {"rank": 0, "torsion": [2]}}]}}'),
]


@pytest.mark.parametrize("check,args,target,key,expected", FAILING)
def test_failing_report_is_pinned(monkeypatch, check, args, target, key, expected):
    real = khoma.verify.homology_unnormalized

    def with_extra_z2(word, **kwargs):
        table = real(word, **kwargs)
        if word != target:
            return table
        groups = dict(table.groups)
        group = table.group(*key)
        groups[key] = AbGroup(group.rank, group.torsion + (2,))
        return dataclasses.replace(table, groups=groups)

    monkeypatch.setattr(khoma.verify, "homology_unnormalized", with_extra_z2)
    assert json.dumps(check(*args).to_json()) == expected


@pytest.mark.parametrize(
    "check,args,message",
    [
        (check_f1, (3, 3), "need 2 <= p < q"),
        (check_rem2, (1, 4), "need 2 <= p < q"),
        (check_f2, (4, 4), "need 2 <= p < q"),
        (check_f3, (1,), "need p >= 2"),
        (check_e_vanishing, (3, 4, 3), "need 3 <= p <= q and 1 <= i <= p - 1"),
        (check_e_vanishing, (2, 4, 1), "need 3 <= p <= q and 1 <= i <= p - 1"),
    ],
)
def test_hypothesis_errors_are_pinned(check, args, message):
    with pytest.raises(ValueError) as err:
        check(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["f1", "--p", "3", "--q", "4"],
         '{"claim": "f1", "params": {"p": 3, "q": 4}, "verdict": "pass", '
         '"witness": {"i_below": 4, "mismatches": []}}\n'),
        (["rem2", "--p", "3", "--q", "4"],
         '{"claim": "rem2", "params": {"p": 3, "q": 4}, "verdict": "pass", '
         '"witness": {"i_below": 4, "mismatches": []}}\n'),
        (["f2", "--p", "3", "--q", "5"],
         '{"claim": "f2", "params": {"p": 3, "q": 5}, "verdict": "pass", '
         '"witness": {"i_below": 5, "mismatches": []}}\n'),
        (["f3", "--p", "4"],
         '{"claim": "f3", "params": {"p": 4}, "verdict": "pass", '
         '"witness": {"i_below": 5, "j_shift": 1, "mismatches": []}}\n'),
        (["e-vanishing", "--p", "3", "--q", "4", "--i", "1"],
         '{"claim": "E-vanishing", "params": {"i": 1, "p": 3, "q": 4}, "verdict": "pass", '
         '"witness": {"i_below": 4, "nonzero": []}}\n'),
    ],
)
def test_verify_stdout_is_pinned(capsys, argv, expected):
    assert main(["verify", *argv]) == 0
    assert capsys.readouterr().out == expected
