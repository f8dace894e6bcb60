"""Exact pins of the paper's trace analyses for every application model.

``analyze`` (Table I), ``figure2_summary`` (Figure 2) and
``tuple_uniqueness`` (Figure 6(a)) at each model's default scale, seed
0.  Each result is rendered field by field -- floats as ``float.hex()``,
every value tagged with its type -- and pinned as a SHA-256 digest, so a
change in summation order, a lost Python scalar or a drifted count all
show up as a mismatch.  On failure the rendered fields are printed.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.traces import (analyze, app_names, figure2_summary,
                          generate_trace, tuple_uniqueness)

#: app -> SHA-256 of the rendered (Table I, Figure 2, Figure 6(a)) results
GOLDEN = {
    "df_amg": {
        "table1": "411a98f7e2f3ed248498c0d5364c82266998328ab8780aefe8a25d75d8ec32f4",
        "fig2": "b23755944326d70981b33dbf12ef07756dde7e5fc9ab3ba679f192769eb3870c",
        "fig6a": "642d7c11eadda0fcbcbfac532ef051510ed04f12afe2f4f0d896106810e9b6ee",
    },
    "df_minidft": {
        "table1": "8df426be4100f9d04c7744ecb43d78cae1ccebefcad03f19b4c26403b07cf152",
        "fig2": "e0d43d088547d2153ae72c783f02d63befc07e342979f4de2e65d542a54f2e79",
        "fig6a": "a9734d2da7a5da1e9de75177496948f9e0673fe08e347820f5fd4a434df07650",
    },
    "df_minife": {
        "table1": "8dc0a4ae75bce9b5847df3c92972a3b45e92389e580e0dc88b9a1fb8d1122ac2",
        "fig2": "273820a9763b2cb19b4a57f7fac59f5c571e6daa955172fa59b34f2b78453f3f",
        "fig6a": "cc754681b84f0911daf68d41a78ec16bdd214dda71c1506f17f9e6261c20ca76",
    },
    "df_partisn": {
        "table1": "4514390b514bacab94c71ae53ac9a4daa9b9d4d179cfa68fc950cfea929dbba5",
        "fig2": "856e33e70d855b8fdd419e43a6a855f3fcb73d639fbb8d8df080aab4c8fb508a",
        "fig6a": "1d4d293ac103118b09917225d1c2a052cc88fa39d0920e56da94f4c32976ac8c",
    },
    "df_snap": {
        "table1": "aa0a2320d774a3c3c853dbace7f89f7faee0758e9354fcb6d31ad8dcade0a58f",
        "fig2": "9f502b356cd030dbddf9591e8cc0e80f5b1487f6531e146d579eb251fc13a181",
        "fig6a": "376c5ffd0ed703e00801aa6f10f49ea683bfa2dab517e09f3f0581ce760552e7",
    },
    "cesar_nekbone": {
        "table1": "bf07169384b86a3e7abf7717f4dcc5f0a06dd373011268ca27e601614d6ef59a",
        "fig2": "9d222d06c6dc9c8203d5c2e8e6f6d2970e29473eadd7a1786ba4962614a75e11",
        "fig6a": "e872c9c4aa048f01881f65f681ad5a995c61b5c90fbf4524457e5f8f7aa3fbd4",
    },
    "cesar_mocfe": {
        "table1": "9010b46464c50daf1836e5f4008f2c738d889a478370df204b6c7ce85266ba0a",
        "fig2": "f51b20d1b09a72c5cf352d0e5a124e90ebdfe11f7b96407cac69d228e1324917",
        "fig6a": "04002e3a0409d9d03537005c6ecb19f298761f6bf63a1d1e84e2ea36fef32ddd",
    },
    "cesar_crystalrouter": {
        "table1": "214ecf9a44b617228bac4f3e57c9a43959692de3793fe886cd92151c9d0a1f54",
        "fig2": "5a71582cc237c032f3471082ef4d7b286174b2b3f96dc5d8aae8dabea7f34e61",
        "fig6a": "021ac35afc3860eb5351ac0da9704b397f64ae950cde817aa2b2077866d6995b",
    },
    "exact_cns": {
        "table1": "50c9cbd38f1de9e8dda864cdf5206431dcd75c3236f653bd679429a3179c67c6",
        "fig2": "47fb4c7c766aa52d4ce646ba3710f8d3ca928b984708e5b3b5442cdaecbaf543",
        "fig6a": "496bf032fa8aaad0d2656bc0953d53977658cd88a345561bf47ae898495db39a",
    },
    "exact_multigrid": {
        "table1": "2dce42c075c33036c904753a48978cc583facd0143d7a423be5a4f0745fa927e",
        "fig2": "24255ff64eb686c18278894f20d968febccdc4c5812d09bac351eb347ac666db",
        "fig6a": "5046cdfac4e1a727d6b0a44133b41131c03eb426985be6e287772a66a310847c",
    },
    "exmatex_lulesh": {
        "table1": "8a89cc539cf266480a1ede00aa1d13e6358743f935ad542e76509df6d3888f9f",
        "fig2": "8683ff438f729673a4e35fff84bcd8c6092e4588376f13f17e20f1f2ed5f8c69",
        "fig6a": "a35225acc5c0c2191fd33654e17e7ab5a57f70dfc286c77ee32b44dda17d0a23",
    },
    "exmatex_cmc": {
        "table1": "b8fdd7620ece1a8413a03f4baf8903ce478bd7db8f04d2a2342b08960fa742b5",
        "fig2": "0fc47c21b5ddacf9c0e1d529ceef61325d72679593737154ae9435bd818fc5d4",
        "fig6a": "9164c5ab1f3cc3260c0853559fa9ba12ca83ecf7c0ff511d2cd9421d5c3acc83",
    },
    "amr_boxlib": {
        "table1": "8c8ca3b1f8d46e812f0fb04a6794978463aab6f6bbe2fe42aec8fda26aa89db6",
        "fig2": "3acb7d24153481076247ffdce6624cecac4770ab737ce52a01ae576600bf0de7",
        "fig6a": "e7ae84d195ca34ef65f32891469536a537eaa3cebfd520fdc32c566a5e5ef20b",
    },
    "bp_amg2023": {
        "table1": "5ea10e400de5878aa2476f9a4060249c7783026d0e700dcf221baf55ae10537a",
        "fig2": "20f8ba947a87086a528b9b022d5935a023b5cc095396d9810c18ee6b39da7684",
        "fig6a": "04397e11c2ee99283c6600ac2c89de86474e90b76d29b18bb2fe54a17052b4ae",
    },
    "bp_kripke": {
        "table1": "9d9bb6a78553ccda30846e9906bdee856e4b74c900903af1c6843a2a503037fb",
        "fig2": "9c9c8ac7baffe8653b7732db2747a7fa7f4af943c530d2b79f995bef25f4593d",
        "fig6a": "172a0f639a0c5ca40cf1491be4e5e20cc603579e203b6a4d89f48ea163acb95a",
    },
    "bp_laghos": {
        "table1": "44935ba5222c2f7d97229aa011624caae28e05d0180bbf36521a48fb6eabf877",
        "fig2": "e2713d058e2fa2bc30a96a7fdd3a53a7e28ca5f93da5d9fde07291bce860a819",
        "fig6a": "aacccf79c4b2c07deae785fb4ac4521bde30ff1f916a8caa906e02286af1e35c",
    },
}

ANALYSES = {"table1": lambda t: dataclasses.asdict(analyze(t)),
            "fig2": figure2_summary,
            "fig6a": tuple_uniqueness}


def _render(value) -> str:
    if type(value) is float:
        return "f" + value.hex()
    if type(value) in (int, str, bool):
        return f"{type(value).__name__[0]}{value!r}"
    return f"{type(value).__name__}:{value!r}"   # any other type is drift


def render(result: dict) -> str:
    return ";".join(f"{key}={_render(value)}"
                    for key, value in sorted(result.items()))


@pytest.fixture(scope="module", params=app_names())
def rendered(request):
    """Each app's trace is generated once; its three analyses rendered."""
    trace = generate_trace(request.param, seed=0)
    return request.param, {name: render(fn(trace))
                           for name, fn in ANALYSES.items()}


def test_every_app_pinned():
    assert sorted(GOLDEN) == sorted(app_names())


@pytest.mark.parametrize("analysis", list(ANALYSES))
def test_analysis_matches_pin(rendered, analysis):
    app, results = rendered
    digest = hashlib.sha256(results[analysis].encode()).hexdigest()
    assert digest == GOLDEN[app][analysis], results[analysis]
