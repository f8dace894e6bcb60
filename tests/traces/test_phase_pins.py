"""Exact pins of the Benchpark models' phase marks and pattern reports.

For bp_amg2023, bp_kripke and bp_laghos, full and ``busiest_only``, at
each model's default scale and at 16 ranks x 3 steps, seeds 0-1:
``meta["phases"]`` and ``pattern_summary(trace)`` are each rendered
field by field -- floats as ``float.hex()``, every value tagged with its
type, dicts in their own key order (phase order is part of the result)
-- and pinned as a SHA-256 digest.  On failure the rendering is printed.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.traces import generate_trace
from repro.traces.apps.benchpark import pattern_summary

SCALES = {"default": {}, "16x3": {"n_ranks": 16, "steps": 3}}

#: (app, scale, seed, busiest_only) -> SHA-256 of the rendered
#: (meta["phases"], pattern_summary) pair
GOLDEN = {
    ("bp_amg2023", "default", 0, False): {
        "phases": "8ff9979ccddccec8437a8d19b9a2294dc1b781b6f57030b9a68d4ebc413c0c93",
        "pattern": "ea47244177c3da18eefdc80a1c28292089370cd488986fb4233eca39c46b5ef9",
    },
    ("bp_amg2023", "default", 0, True): {
        "phases": "96e3582fd15fa9fa9f57df0f35cf322b81130c534033b0ea4d9b0f56726a2802",
        "pattern": "edd95ed4933b3e69074b1f9b31f2186836fa54414f53c6e7a10fb515ff4069cd",
    },
    ("bp_amg2023", "default", 1, False): {
        "phases": "d5bfbf2f6757ab8d07161a08ef5e67115beef6f0cf1a970dd0509a30b72fa46f",
        "pattern": "1f06ffde569343356989d01a2a64b10aa41a7c45ab5d42ebe102c9952ffa65cd",
    },
    ("bp_amg2023", "default", 1, True): {
        "phases": "b1780866ad94554c3ae7b3763951ae491c842eb7ee4f4993dbb30d80a173734d",
        "pattern": "76773896d92f7a7dc51b73f13324a2027a157151bac6136b0805f10ebcb905d6",
    },
    ("bp_amg2023", "16x3", 0, False): {
        "phases": "7ae00386c632df24c5dc58497827565f897de540103e0f49c885f066189c52de",
        "pattern": "f2b7ae57cc526a1ab31244145c3e5fcc45420cf0f922a8f006c4682cca11062c",
    },
    ("bp_amg2023", "16x3", 0, True): {
        "phases": "abf83ba80d210e1e5f39dc755f6d4396e5d2dc1fc0208b9bc89218361098481a",
        "pattern": "e887f1105bd3e3b635549a12befc63f35ae669aee32e9e88f3af0f84a21c51af",
    },
    ("bp_amg2023", "16x3", 1, False): {
        "phases": "93aeab83fbe6fbad16d87ce3f9b8742182fd6ee3bdd1eed5975fdcba8047c97d",
        "pattern": "4c103932d08997c57efddbdf14e802d49fd0c7b1386959cea3ac6e8eb693de58",
    },
    ("bp_amg2023", "16x3", 1, True): {
        "phases": "73e3114d06f3ff4ad565ab2d3c0633a4a87a6a46cdd907b5540b2668c204f17c",
        "pattern": "2852579a308b7e6e2193c15695a01cd8505682e7e9240fcbae6dfdfef847ba8b",
    },
    ("bp_kripke", "default", 0, False): {
        "phases": "91550351d6e33912369b09ddbf8e6ffadc0f8db97e63c5af4c6c6091aa086819",
        "pattern": "70be35fe6e45016b43cb0386aa9877d111442117e41d2a665019870eeff79761",
    },
    ("bp_kripke", "default", 0, True): {
        "phases": "63920245edc963676d5b7fda774d6d29cd545f271534470a17957826dac62858",
        "pattern": "8df32cc5d5dd364617a8db9298e56b40128837b0f0ded951a696d43f51ac58c6",
    },
    ("bp_kripke", "default", 1, False): {
        "phases": "91550351d6e33912369b09ddbf8e6ffadc0f8db97e63c5af4c6c6091aa086819",
        "pattern": "70be35fe6e45016b43cb0386aa9877d111442117e41d2a665019870eeff79761",
    },
    ("bp_kripke", "default", 1, True): {
        "phases": "63920245edc963676d5b7fda774d6d29cd545f271534470a17957826dac62858",
        "pattern": "8df32cc5d5dd364617a8db9298e56b40128837b0f0ded951a696d43f51ac58c6",
    },
    ("bp_kripke", "16x3", 0, False): {
        "phases": "1f2e8d686c40f49f1593df81d385f00ab63295256f7d218b11c355eb13244e05",
        "pattern": "9d921e5224f8bdb5e6bd98bda44f03e6eaf42211de2e220112696fc679ac68cc",
    },
    ("bp_kripke", "16x3", 0, True): {
        "phases": "10646a5aeffbce5079eec07a9a870a761e319784f5b3984e2eee2d857740b232",
        "pattern": "39a2c630664302753bd1c5b95b1cad5dee5a1d2bfd191718b9c3b8c826d571f9",
    },
    ("bp_kripke", "16x3", 1, False): {
        "phases": "1f2e8d686c40f49f1593df81d385f00ab63295256f7d218b11c355eb13244e05",
        "pattern": "9d921e5224f8bdb5e6bd98bda44f03e6eaf42211de2e220112696fc679ac68cc",
    },
    ("bp_kripke", "16x3", 1, True): {
        "phases": "10646a5aeffbce5079eec07a9a870a761e319784f5b3984e2eee2d857740b232",
        "pattern": "39a2c630664302753bd1c5b95b1cad5dee5a1d2bfd191718b9c3b8c826d571f9",
    },
    ("bp_laghos", "default", 0, False): {
        "phases": "4a1019b0c40545ea24378f03acabccb563204186b9568deaffbb9cb390a1de5c",
        "pattern": "9a9cfa128c02eb1ee017de2079b7e83dcde62ff61e25631e3c19338188ea655b",
    },
    ("bp_laghos", "default", 0, True): {
        "phases": "f75f8c7eff1e5253c2f15f896c051423638365fbe74fbbe349abab3418aecbd4",
        "pattern": "9bb61648248171dc1872826001e2a729fc28d64bf6500f190c6473769d6a74b0",
    },
    ("bp_laghos", "default", 1, False): {
        "phases": "4a1019b0c40545ea24378f03acabccb563204186b9568deaffbb9cb390a1de5c",
        "pattern": "9a9cfa128c02eb1ee017de2079b7e83dcde62ff61e25631e3c19338188ea655b",
    },
    ("bp_laghos", "default", 1, True): {
        "phases": "f75f8c7eff1e5253c2f15f896c051423638365fbe74fbbe349abab3418aecbd4",
        "pattern": "9bb61648248171dc1872826001e2a729fc28d64bf6500f190c6473769d6a74b0",
    },
    ("bp_laghos", "16x3", 0, False): {
        "phases": "bd7f2a3c0cc17d78c9d7a81e2d0173cdbfa43f883e10a4451a268a9de856740a",
        "pattern": "ebd2ba7050e862cde1777ae12263727a750073c02ca9f50438473c241a856e98",
    },
    ("bp_laghos", "16x3", 0, True): {
        "phases": "7d217e2540f46fec1fc4534a8e86c24fc284f20ed49d9c7d0bd5a8df698a14eb",
        "pattern": "e50379073a86681301f7deba75ab0b9232d2ae973b0096599a4f1ad0bb71f801",
    },
    ("bp_laghos", "16x3", 1, False): {
        "phases": "5159368e0ac8f3ed504b68efb71ed178124c53afc2c08379de9ac8f3f6e66128",
        "pattern": "989ef72725f6e6222ddbec085d153494b6f846add2820a2d97cf0caeeac95ad0",
    },
    ("bp_laghos", "16x3", 1, True): {
        "phases": "4edf3e2a0a927274d13f4640a1840e2f0a0b0c4f618ea9d1ad82a0d1f9b6971c",
        "pattern": "d0414d4fbcf48b1e1144a354e1180420ddcb33f107bea13209523361be5a45f9",
    },
}


def render(value) -> str:
    if type(value) is float:
        return "f" + value.hex()
    if type(value) in (int, str, bool):
        return f"{type(value).__name__[0]}{value!r}"
    if type(value) is dict:
        return "{" + ";".join(f"{key}={render(item)}"
                              for key, item in value.items()) + "}"
    if type(value) is tuple:
        return "(" + ",".join(map(render, value)) + ")"
    return f"{type(value).__name__}:{value!r}"   # any other type is drift


CASES = [(app, scale, seed, busiest)
         for app in ("bp_amg2023", "bp_kripke", "bp_laghos")
         for scale in SCALES for seed in (0, 1) for busiest in (False, True)]


@pytest.mark.parametrize("app,scale,seed,busiest", CASES)
def test_phases_and_pattern_match_pin(app, scale, seed, busiest):
    trace = generate_trace(app, seed=seed, busiest_only=busiest,
                           **SCALES[scale])
    rendered = {"phases": render(trace.meta["phases"]),
                "pattern": render(pattern_summary(trace))}
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in rendered.items()}
    assert digests == GOLDEN[app, scale, seed, busiest], rendered
