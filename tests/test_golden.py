"""Golden digests of the exact phi/psi that the pipelines build.

Each digest is the SHA-256 of json.dumps(mf.to_dict()) for a pair built
unchecked (verify="skip"), so any change to an entry, its sign, its
position or its printed form shows up here.  The digests were recorded
while matrices were still stored densely, and must not move.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from polymf import SummandReducedPoly, fixtures, run_improved, run_refined, run_standard

from laws import mult_tensor_variant

DOCUMENTS = {
    "part1": (["zy"], [["xy^2 + x^2z + yz^2", "xy + z^2"]]),
    "part2": (["x^5y^2"], [["xy^2 + x^2z + yz^2", "x^2z + y^2 + y^2z"]]),
    "two_product": (
        ["zy"],
        [["xy^2 + x^2z + yz^2", "xy + z^2"], ["yz + xy^2 + x^2", "x^3z^2 + yx + y^2"]],
    ),
    "no_monomial": ([], [["xy + z^2", "x + y"], ["x + z", "y + z"]]),
}


def test_every_copy_of_the_paper_corpus_is_these_documents():
    """fixtures.PAPER_DOCUMENTS, and the four documents of the benchmark's
    workloads (read from its source, so no harness code is imported),
    hold exactly DOCUMENTS: a typo fails here with the document's name."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    constants = {
        target.id: node.value
        for node in ast.parse(source).body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    assert fixtures.PAPER_DOCUMENTS.keys() == DOCUMENTS.keys()
    for name, (terms, products) in DOCUMENTS.items():
        document = {"terms": terms, "products": products}
        assert fixtures.PAPER_DOCUMENTS[name] == document, f"fixtures.PAPER_DOCUMENTS[{name!r}]"
        assert ast.literal_eval(constants[name.upper()]) == document, f"perfbench/workloads.py {name.upper()}"


RUNS = {"run_refined": run_refined, "run_improved": run_improved, "run_standard": run_standard}

DIGESTS = {
    ("run_refined", "part1", "standard"): "3907debefdbde62ecf8824d2fb37deb90a7867142b1f25ecdd3d934504f20fa5",
    ("run_refined", "part1", "v1"): "0d978e158d82c2b76d0c1ebdaade11db55f8b0a13e16ec9e85c9b6783f85c59c",
    ("run_refined", "part1", "v2"): "7aa2691752b73fb1bf25045b8cd172dbc2ddaeef8941fe4e011c02d399c45d15",
    ("run_refined", "part1", "v3"): "7edeb447e942c210f504a28ad6915b53031ea31aec7edacebf8dbfe066f281bf",
    ("run_improved", "part1", "standard"): "4c849479034f60351b0012cdd53dbe5efe5af4dabc3c9e20831b78ddea7bfafa",
    ("run_improved", "part1", "v1"): "225afe6d9f0d67288ee5acd96bd6c10c8079d77c32be9b9ce44afe02f288c68f",
    ("run_improved", "part1", "v2"): "891f246c285ce7bac66ebe956d406f74a32ea29f45aa5ad7a8dd3082a2f7c6ec",
    ("run_improved", "part1", "v3"): "bfbe4fb9b6bbb863c9560ded1b2d9632540d75c0c0bb7e10d08eacdc4077bac8",
    ("run_standard", "part1", "standard"): "82dfd1d365538739f08b8ce4c0c5ca39f95b41ed81d17e7d755e20a2caa1451b",
    ("run_standard", "part1", "v1"): "37d41b41435c1a90a719ac3bdcc97f5049413d97671eccec1cbdc3adefdcc881",
    ("run_standard", "part1", "v2"): "e861ee660df0ba27f69e3c0ede7f6962e2ab05a24b50b78f52acd1343a412b96",
    ("run_refined", "part2", "standard"): "b883a91d4b67a1d6f0f4fb545e0612643d10318387f7db3c59ed9ef4d95f5659",
    ("run_refined", "part2", "v1"): "09436075fc6c8d3d311a78a829eca5985aeb984194e5f7b12fecdbb89782cfbf",
    ("run_refined", "part2", "v2"): "36f09dc0976d517cf6fe96ff0ad20b224e4f348ac8c77e91c6b6c671c57dfefa",
    ("run_refined", "part2", "v3"): "8aaca4a647a3b489698d305bd714811618a571a91286310fbd1c1e86b19e0bec",
    ("run_improved", "part2", "standard"): "b4c391d10580f629d441c8487396f90fd9f3d185f14ea38b3644acafb548813e",
    ("run_improved", "part2", "v1"): "1febd641281b1bf44b62a96427b45930143152190762a666870a4c909e2b38c8",
    ("run_improved", "part2", "v2"): "059c14a1d8f510a97d795043477ed0db0c3178f9c46a388764a9f34e2bd8e797",
    ("run_improved", "part2", "v3"): "b410b847e94488d6c060702c635261e81db54e5da3858b4b13bf37e12d5ee94d",
    ("run_standard", "part2", "standard"): "5d1d6a2a256550c638ac4237e3b86e41db426a09d2dbee95d49dfd9c1e10998d",
    ("run_standard", "part2", "v1"): "e8cfade733ad83792cd24e857266e88d6d58aee595285acc34e2b37f8f5a839c",
    ("run_standard", "part2", "v2"): "0a99478d3df6e84f55b442b978496a9e09fd218754db55f5ddddb373dddec2e7",
    ("run_refined", "two_product", "standard"): "2e553967956a478f334bdeec4cda09b3971c064fa90e57fd50c86be0a049e9e8",
    ("run_refined", "two_product", "v1"): "2cc6a279ed84e882daac49566e34a5e5ac1c1ed2ca30e2003acff447e259f64f",
    ("run_refined", "two_product", "v2"): "40da7e6633e0d8855678ae440dbbbf953928b105bc3038245ac30351e1098c60",
    ("run_refined", "two_product", "v3"): "6ca94639cb99f549738f46bf3a4cab897712b8da2e0f607de9a36c697e715fe3",
    ("run_improved", "two_product", "standard"): "b2516baeb390198814ceb3b48958f263ddf37a5c6354a3597e4c3c9c8ee5f8ce",
    ("run_improved", "two_product", "v1"): "aca393524723b32a9feafc774081a9b9a5d01ae63598841caf99857166d5aaf5",
    ("run_improved", "two_product", "v2"): "70376c2931c0565b17e00ade59f8b69a8010ac029f479ba47e5b46acf4e65897",
    ("run_improved", "two_product", "v3"): "29cfc2f808989d96cbd6f87cc1236f5a6952fb0c7caa1843a23556553805a609",
    ("run_refined", "no_monomial", "standard"): "185e3ffe663f9d88300ae51c6341bdc253b6e552428697c68d64bf340eb5c60d",
    ("run_refined", "no_monomial", "v1"): "d325e1df3bc76b72a144418c5196d8e041392a17bc9b60b06d6e12e5881783e5",
    ("run_refined", "no_monomial", "v2"): "a9e8af07e5dcc685399269c07575041247861f93324690f31300cc57694f461a",
    ("run_refined", "no_monomial", "v3"): "4041e02337aacb005852d727263e684fa24328134481e46f3444a4295b661325",
    ("run_improved", "no_monomial", "standard"): "1beea53a2651ad783ac42368bebb23482f7e27b39e1f7076838c62abd4c3b6f4",
    ("run_improved", "no_monomial", "v1"): "b037f0c68f4ac98a069590eece10883184829b9e4e017b1cad0068307c3a11c2",
    ("run_improved", "no_monomial", "v2"): "1430eba8eac890961957794037adc418d45c067e3d7089f49408ccade4732df2",
    ("run_improved", "no_monomial", "v3"): "965fce52a83e8a3514edbb3dcfe66d7915896fb45f85ef73e9e9e9651aa87147",
    ("run_standard", "no_monomial", "standard"): "01d198a4d0ed7ecf3cf67f00f9ce0206ddbeedb86bc8de0ee35bbaa4aab74aed",
    ("run_standard", "no_monomial", "v1"): "28c679ddb51e7212f34003739683733665fa936d779e9130448f23c950718a0f",
    ("run_standard", "no_monomial", "v2"): "fb7fa696ec03a96ce2599e5126d0da553385c79a40798e1b201e505a6cebc235",
}


def digest(mf) -> str:
    return hashlib.sha256(json.dumps(mf.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("run,doc,variant", sorted(DIGESTS), ids=["-".join(k) for k in sorted(DIGESTS)])
def test_pipeline_pair_is_unchanged(run, doc, variant):
    mf = RUNS[run](SummandReducedPoly.from_strings(*DOCUMENTS[doc]), variant, verify="skip")
    assert digest(mf) == DIGESTS[run, doc, variant]


def test_mult_tensor_variant_pair_is_unchanged():
    mf = mult_tensor_variant(fixtures.pair_m(), fixtures.pair_p(), verify="skip")
    assert digest(mf) == "2d51401cb7e59decdf7659cc444560914f55e10367ff13c702111bd9b23982e9"


# The fixtures' documents: reading a fixture's two grids into one table
# must not move a byte of them.
FIXTURE_DIGESTS = {
    "simple_quadratic": "9cea8cc7f38013058db6e670413eae6d6a278d3188c0f8a96c32c48795bad512",
    "pair_m": "0cedc481b7a37442db8303759e8fb0c39e8ce93dcaae1fa55a051737dceec9e3",
    "pair_p": "961ffbaa49c3ff843eec20f512d82f15a6d26e907140da43781ee7823d136c0c",
    "pair_n": "f5973c18cfe7d4c51e43ce00d70e7bbf6558ac0f61be94153f5321bf14e36f45",
    "pair_y": "3db00aac6ea8913f3df7d76c6b7a97a747fdebf636f559369757e3a68e8a48f3",
    "pair_q": "3015c34a8d8e68e4fa85d8dff7a68b60fe9f2b6a161fbc8f0444ecd7fb5c0ba8",
    "pair_l": "57916b89be981a830ce4cd93afc49edf183f8d31873e61ac7817324346a3ba18",
    "part1_pair": "ecde8def4c08be88b7a42c87800e83111fc2b9bae1778ea8946540aa43c7290b",
    "part2_pair": "7a28376d33bec2a0b90ea9d097811f60ac2453b361322c588d7c25fd4abf6e8e",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_pair_is_unchanged(name):
    mf = getattr(fixtures, name)()
    assert mf.phi.table is mf.psi.table
    assert digest(mf) == FIXTURE_DIGESTS[name]
