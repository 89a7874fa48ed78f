"""Golden CLI outputs: refactors must leave every byte of every report as it was.

Each case runs ``cli.main`` in-process on a fixed corpus and compares the
SHA-256 of its stdout (followed by the CSV export, where there is one) with
the digest recorded below.  A case must also exit 0 and print nothing to
stderr.

When an output is meant to change, print the new table with
``PYTHONPATH=src python tests/test_cli_golden.py`` and say why in the change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

from corpus import GRID_4X3_EDGES, GRID_4X3_TD, dump_td
from widthspan.cli import main
from widthspan.graph import dump_graph, generate
from widthspan.twdp.decomposition import min_fill_td

FAMILIES = {
    "path": [],
    "cycle": [],
    "grid": [],
    "caterpillar": [],
    "random_bandwidth": ["--b", "3", "--p", "0.6"],
    "random_cutwidth": ["--c", "2"],
}
N = 12
SHUFFLE_SEED = 11
ARRANGEMENT_COMMANDS = {
    "stats": ["stats"],
    "build-tree": ["build-tree"],
    "build-tree --padded --shift 3": ["build-tree", "--padded", "--shift", "3"],
    "distribution --explicit --csv": ["distribution", "--explicit", "--csv", "{csv}"],
    "distribution --sample 3 --seed 5": ["distribution", "--sample", "3", "--seed", "5"],
    "cutwidth-tree --best-shift": ["cutwidth-tree", "--best-shift"],
    "cutwidth-tree --seed 2": ["cutwidth-tree", "--seed", "2"],
}
# The all-shifts commands at n = 33: 95 shifts, so the shift bits take seven
# levels and the top level holds only residues 0..30.  The folded cycle has a
# different tree on many shifts; under a shuffled arrangement most edges are
# long.
SHIFT_WALK_N = 33
SHIFT_WALK_COMMANDS = ("distribution --explicit --csv", "cutwidth-tree --best-shift")
SHIFT_WALK_CASES = (
    ("cycle", [], "folded"),
    ("grid", [], "shuffled"),
    ("random_bandwidth", ["--b", "3", "--p", "0.6"], "shuffled"),
)
# Long multi-digit lists: thousands of edge and arrangement fields and report
# entries, so the bulk graph and arrangement parsers and the JSON writer all
# see numbers of up to four digits.
LONG_N = 3000
LONG_PARAMS = ["--b", "4", "--p", "0.7"]
LONG_COMMANDS = ("stats", "build-tree")
K4 = "p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
K4_TD = "s td 1 4 4\nb 1 1 2 3 4\n"
GRID_2X3 = "p 6 7\ne 1 2\ne 1 3\ne 2 4\ne 3 4\ne 3 5\ne 4 6\ne 5 6\n"
GRID_2X3_TD = "s td 4 3 6\nb 1 1 2 3\nb 2 2 3 4\nb 3 3 4 5\nb 4 4 5 6\n1 2\n2 3\n3 4\n"
GRID_4X3 = f"p 12 {len(GRID_4X3_EDGES)}\n" + "".join(f"e {u} {v}\n" for u, v in GRID_4X3_EDGES)


def dp_corpus() -> list[tuple[str, str, str]]:
    """(label, graph, decomposition) of every ``dp-min-stretch`` case.  A bound
    that prunes more can change which of several optimal trees the DP reports,
    so the witnesses are pinned on more inputs than the oracle runs on."""
    generated = [("grid 3x3", "grid", 9)] + [
        (f"{family} {n}", family, n)
        for family in ("cycle", "caterpillar", "path") for n in range(3, 13)
    ]
    cases = [("K4", K4, K4_TD), ("grid 2x3", GRID_2X3, GRID_2X3_TD),
             ("grid 4x3", GRID_4X3, GRID_4X3_TD)]
    for label, family, n in generated:
        g, _ = generate(family, n)
        cases.append((label, dump_graph(g), dump_td(min_fill_td(g), g.n)))
    return cases


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc != 0 or err.getvalue():
        raise AssertionError(f"{argv}: exit {rc}, stderr {err.getvalue()!r}")
    return out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _arrangement_case(work: Path, name: str, graph: str, arr_args: list[str]) -> str:
    """Digest of one ``ARRANGEMENT_COMMANDS`` entry on one graph."""
    csv = work / "out.csv"
    command = ARRANGEMENT_COMMANDS[name]
    text = _run([*[arg.format(csv=csv) for arg in command], "--graph", graph, *arr_args])
    if "--csv" in command:
        text += "--- csv ---\n" + csv.read_text()
    return _digest(text)


def arrangement_corpus(work: Path):
    """Write every graph and arrangement of the corpus inside ``work``; yield
    (label, graph path, arrangement arguments, command names) for each."""
    for family, params in FAMILIES.items():
        graph = str(work / f"{family}.gr")
        _run(["gen", "--family", family, "--n", str(N), "--seed", "1",
              *params, "--out", graph])
        shuffled = list(range(1, N + 1))
        random.Random(SHUFFLE_SEED).shuffle(shuffled)
        arrangement = work / f"{family}.arr"
        arrangement.write_text("".join(f"{v}\n" for v in shuffled))
        for arr_name, arr_args in (("identity", []),
                                   ("shuffled", ["--arrangement", str(arrangement)])):
            yield f"{family}/{arr_name}", graph, arr_args, ARRANGEMENT_COMMANDS
    for family, params, arr_name in SHIFT_WALK_CASES:
        graph = str(work / f"{family}-{SHIFT_WALK_N}.gr")
        arrangement = work / f"{family}-{SHIFT_WALK_N}.arr"
        _run(["gen", "--family", family, "--n", str(SHIFT_WALK_N), "--seed", "1",
              *params, "--out", graph, "--arrangement-out", str(arrangement)])
        if arr_name == "shuffled":
            shuffled = list(range(1, SHIFT_WALK_N + 1))
            random.Random(SHUFFLE_SEED).shuffle(shuffled)
            arrangement.write_text("".join(f"{v}\n" for v in shuffled))
        yield (f"{family} {SHIFT_WALK_N}/{arr_name}", graph,
               ["--arrangement", str(arrangement)], SHIFT_WALK_COMMANDS)
    graph = str(work / f"random_bandwidth-{LONG_N}.gr")
    arrangement = work / f"random_bandwidth-{LONG_N}.arr"
    _run(["gen", "--family", "random_bandwidth", "--n", str(LONG_N), "--seed", "0",
          *LONG_PARAMS, "--out", graph, "--arrangement-out", str(arrangement)])
    yield (f"random_bandwidth {LONG_N}/identity", graph,
           ["--arrangement", str(arrangement)], LONG_COMMANDS)


def golden_digests(work: Path) -> dict[str, str]:
    """Run the whole corpus inside ``work``; map each case to its digest."""
    digests = {}
    for label, graph, arr_args, commands in arrangement_corpus(work):
        for name in commands:
            digests[f"{label}: {name}"] = _arrangement_case(work, name, graph, arr_args)
    for label, graph_text, td_text in dp_corpus():
        graph = work / "dp.gr"
        graph.write_text(graph_text)
        td = work / "dp.td"
        td.write_text(td_text)
        digests[f"{label}: dp-min-stretch"] = _digest(
            _run(["dp-min-stretch", "--graph", str(graph), "--td", str(td)]))
        if label in ("K4", "grid 2x3"):
            digests[f"{label}: oracle --histogram"] = _digest(
                _run(["oracle", "--graph", str(graph), "--histogram"]))
    digests["verify --suite all --seed 0"] = _digest(
        _run(["verify", "--suite", "all", "--seed", "0"]))
    return digests


GOLDEN: dict[str, str] = {
    'path/identity: stats': '0ffc3fbcfc89c4a8a726afca5e69d4e91339cfd9a62baddf82824a45e75eb951',
    'path/identity: build-tree': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'path/identity: build-tree --padded --shift 3': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'path/identity: distribution --explicit --csv': '7c39b6c19edeb59bfac352d7804816eae3bc3e0ca12c7754b49bab741cbad59c',
    'path/identity: distribution --sample 3 --seed 5': 'e5ba5814dba63cecf665de9ce3faa0bc542a59d3aead2e072fe0bc0d4d50d53b',
    'path/identity: cutwidth-tree --best-shift': 'fcf085a2aa31a308262edf776c0828414a12042973dbad9126a89bb48e906e65',
    'path/identity: cutwidth-tree --seed 2': 'd7c4493f0354f3279b1b0804e86b83c8b934aebd1c47c1fd088321458ea52f3b',
    'path/shuffled: stats': '2c36975fab81c00263f7f59896f344793b7ecc16dda3653ae11e22774da66e3b',
    'path/shuffled: build-tree': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'path/shuffled: build-tree --padded --shift 3': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'path/shuffled: distribution --explicit --csv': 'aa7ce1b9b7bdbfffe3958a340a8e4106b01d96fa0c2328333dfe5446a83c4502',
    'path/shuffled: distribution --sample 3 --seed 5': 'e5ba5814dba63cecf665de9ce3faa0bc542a59d3aead2e072fe0bc0d4d50d53b',
    'path/shuffled: cutwidth-tree --best-shift': '91bbda379dca5ca050ead325d63320c33f349f5fd02b2abcfbb49b6455c3b5b5',
    'path/shuffled: cutwidth-tree --seed 2': 'bb1fbc0bb404ae88c599613badbb4e36fb06df0450ba9e2eec1921647fcd2952',
    'cycle/identity: stats': '5c93aa119147310c9b493ef02b036624608078db3a3a87fd2cd14c9454707241',
    'cycle/identity: build-tree': '2c7eeddb1d42295ac1614a5b70ce115aa12a9499d182e089c51ab26d19191437',
    'cycle/identity: build-tree --padded --shift 3': '2c7eeddb1d42295ac1614a5b70ce115aa12a9499d182e089c51ab26d19191437',
    'cycle/identity: distribution --explicit --csv': 'fc603dc9c4a4c64803c2a807e7de7b9911b9519741fd411f16cd9ab25e8c5192',
    'cycle/identity: distribution --sample 3 --seed 5': 'db9f2cbf0a89536ed6353e9fe850fbbfc4035801fa58fd62ae23c7d3f1c8a74b',
    'cycle/identity: cutwidth-tree --best-shift': '6ad7dd8deb610edf2ff1edfc16bade1c9a592b153f1202997d957a163b579091',
    'cycle/identity: cutwidth-tree --seed 2': '4cf2ddef13a0e4f8df9e79a2d5fa54e6c18d7ff990376a7925bbde22007beb1a',
    'cycle/shuffled: stats': 'a12471eca1550c9ebde278fd4377d5135ec59587b9398ef61253a3c30b715886',
    'cycle/shuffled: build-tree': 'ec15abfeda22334fc866dd63af09d46aad5f54c7a3aade6aa030edb607e1fe82',
    'cycle/shuffled: build-tree --padded --shift 3': 'ec15abfeda22334fc866dd63af09d46aad5f54c7a3aade6aa030edb607e1fe82',
    'cycle/shuffled: distribution --explicit --csv': '2bd87197c831155e9553739b125858618943fcfd7ad53564fab2634c03af01d3',
    'cycle/shuffled: distribution --sample 3 --seed 5': '10808fd038a24edddeb71d2f39b41914a4d1e4565675df1a684e3976f9d91747',
    'cycle/shuffled: cutwidth-tree --best-shift': '8fcaad11ee2014c0fd9f7e1b45eeff03cc5f760e4d0f539284f7c0e60d5fd3a4',
    'cycle/shuffled: cutwidth-tree --seed 2': '8d57754e1b47d35022430ca004dc0e6e26c61babb05bc22cc19d47742ee58726',
    'grid/identity: stats': '4ac6278e3db31355b116ce5495d8d5f8b8637ae8f1fa079ff92b048f293387c2',
    'grid/identity: build-tree': '19526d0d904ea8364ad7ad19da028fc05b026934e0aa46bae0f4d668c550e33f',
    'grid/identity: build-tree --padded --shift 3': '7e0a393db8049338ed227f59f5abab51c3198cf9f6a32145f7c68b02ccd44274',
    'grid/identity: distribution --explicit --csv': '9624866e8e8f7c30bee323253e16482accf2779973ef4052b137bdab11f1b6d7',
    'grid/identity: distribution --sample 3 --seed 5': 'f8bff39333e7ffd626777d994d4ff7cc3a4c0606bf8f7a59fecd13ccdde85ec8',
    'grid/identity: cutwidth-tree --best-shift': 'a4c1731e38e6c26c474b688432ba1a693217dc19563f0e308117cf8e16745f52',
    'grid/identity: cutwidth-tree --seed 2': 'b47ea41e30f4d714d8f85f3e3d8a4378f034ccb6b0d4dc4b56baeddfaabfef8e',
    'grid/shuffled: stats': '749518c1f8ff37a293620b077e04b7737c918ee0233893d7e4b649d0cc3f4a22',
    'grid/shuffled: build-tree': 'ef3d283820fbf7947f2833f5357ac548bbcf85fc4158213cfa43f8c1f917271d',
    'grid/shuffled: build-tree --padded --shift 3': 'ffa8e044a26421e3992e9605dcf1c40a0069dbc3c292431bfe94ed67e60c3c09',
    'grid/shuffled: distribution --explicit --csv': 'ea75bfce5f0791d697a647547aee7ecd6cefb5d73fbdfbbed7b1eb6e4e08bae7',
    'grid/shuffled: distribution --sample 3 --seed 5': 'd11cd3b79cb5680b8775c3b723edec24f29bc7c51d93d1442e9ace21736d8040',
    'grid/shuffled: cutwidth-tree --best-shift': '85f842ffb79d4ed69a5ccfe3d66052c7b31f1de0579e00520c337a58cefa2401',
    'grid/shuffled: cutwidth-tree --seed 2': '923346524d6365e16b0539c248281aab7dcb688c851aa77c012cc6a3b4b3b8e5',
    'caterpillar/identity: stats': 'c38c54860c56e2f5b0f812a1a57436a5df66c3dd7bcfa43bc8429f76736dcc58',
    'caterpillar/identity: build-tree': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'caterpillar/identity: build-tree --padded --shift 3': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'caterpillar/identity: distribution --explicit --csv': 'b68c63f615e1e4575a8fd84ba04f04d4f55ddc9a6107109f0300efc09973ede5',
    'caterpillar/identity: distribution --sample 3 --seed 5': 'e5ba5814dba63cecf665de9ce3faa0bc542a59d3aead2e072fe0bc0d4d50d53b',
    'caterpillar/identity: cutwidth-tree --best-shift': '986a48144eff431955acea012773b15cc14bda6f8c40c5de38c3b53d44c4892b',
    'caterpillar/identity: cutwidth-tree --seed 2': '7c4dd24b3af2771f96efc32964422cba42539565a07adb80cd6a830ec859cae1',
    'caterpillar/shuffled: stats': '7491d509a9c4404dfb7a7c6ab18cb91714ada3ca69b21d2bcc6175de1f50cc11',
    'caterpillar/shuffled: build-tree': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'caterpillar/shuffled: build-tree --padded --shift 3': '559b37cfdbbf646e67b01547fd9bc7772f51e14dbc8494fee61bc6c99ee73e97',
    'caterpillar/shuffled: distribution --explicit --csv': '525291df625ef32386c90527ed974113f6b9ce72330ac0edf4b871d63a462785',
    'caterpillar/shuffled: distribution --sample 3 --seed 5': 'e5ba5814dba63cecf665de9ce3faa0bc542a59d3aead2e072fe0bc0d4d50d53b',
    'caterpillar/shuffled: cutwidth-tree --best-shift': '354ccff609dc27f29a21b06738428959e7e14c87748551c928c9e1616b5376d7',
    'caterpillar/shuffled: cutwidth-tree --seed 2': 'c02260fb5990280798e0bab35091d1c74b12076284a698fd8ed4a6fc74cd7374',
    'random_bandwidth/identity: stats': 'b9b6aa5859963f1d5bbb460d27caaa668ddd3fd09842fe809998811592682166',
    'random_bandwidth/identity: build-tree': '670940d22c3e55b6bb5985c478ea64d23cf03bd75f31e7798d8d744b8118b56e',
    'random_bandwidth/identity: build-tree --padded --shift 3': '670940d22c3e55b6bb5985c478ea64d23cf03bd75f31e7798d8d744b8118b56e',
    'random_bandwidth/identity: distribution --explicit --csv': 'e85bedc6ab57c83cddfc034c16453f59ba222cd6dd66f5221c36a2172df55e45',
    'random_bandwidth/identity: distribution --sample 3 --seed 5': 'a3543737511d40a4adea0a2369754e0659b7059a63d83e01d8903c29c6ae3c32',
    'random_bandwidth/identity: cutwidth-tree --best-shift': '0470f5c6a5c98069ca3192221bce9306b9450025de292aee5c8a91be1b13fc9a',
    'random_bandwidth/identity: cutwidth-tree --seed 2': '48dbaba3ac832997c86384564e227d2e8b9a290a7e849fd5ea6091702b0f17c2',
    'random_bandwidth/shuffled: stats': '3bb9489eb6289d68353da7f34587dacbabdfe78f0dfc5053b5c33e4b2cc3274b',
    'random_bandwidth/shuffled: build-tree': '839cb3266407828fd82dbb3730fe5b3b90169424427940f64e0a835689b9886c',
    'random_bandwidth/shuffled: build-tree --padded --shift 3': '0334a6bb833348f20dd613c39d36ad6626f7f16895d9f2bb1a2aac9c8de459d0',
    'random_bandwidth/shuffled: distribution --explicit --csv': '3ae0340c253fef6885a046027e374e957a2fe0c87ebc34b5c0dd61ec3a230f57',
    'random_bandwidth/shuffled: distribution --sample 3 --seed 5': 'adf701e8b3ec0568fe9d832595a8a3658548f73c7a1d90a6c3ee67e40c7e4f36',
    'random_bandwidth/shuffled: cutwidth-tree --best-shift': 'cbe117f6ef658510bb86d48904436284cb4ed70dedca3ea8decd854deca48e54',
    'random_bandwidth/shuffled: cutwidth-tree --seed 2': 'af9b5b925abf1f06923d22b76c068c1ace3ab8fadc45b5cdde7a8193ece8bca1',
    'random_cutwidth/identity: stats': 'ff5da51cf368ed518d4d4b790617dc89285358f4f5fe77699fb8f72d170e1f28',
    'random_cutwidth/identity: build-tree': '01c173b42298a97206cdae3a3cda6910d0391df55b05ed0eabf371e1c8635db3',
    'random_cutwidth/identity: build-tree --padded --shift 3': '01c173b42298a97206cdae3a3cda6910d0391df55b05ed0eabf371e1c8635db3',
    'random_cutwidth/identity: distribution --explicit --csv': '6359367571e5aeb937a2ce030bc4a67c07b1ddf8b94814d418ddb06d695df3a5',
    'random_cutwidth/identity: distribution --sample 3 --seed 5': 'f90b3765d73c284985e8ef53d75c5606f485ee6b7babd0346f4cb7e79528649c',
    'random_cutwidth/identity: cutwidth-tree --best-shift': '216cb6bef0a050fb525996218e45a92b294739b1b87645df5dd0a54083b80243',
    'random_cutwidth/identity: cutwidth-tree --seed 2': '30275026e235801492055307059ce1afd269032903a9ee4721f77234f813cc3c',
    'random_cutwidth/shuffled: stats': '9ea5482367d71eab1f269f142c9773ffa9a6e0d7c3fd5020a9bbc52b0f4a6691',
    'random_cutwidth/shuffled: build-tree': '766e32f8856b4f7accaf00acfe5044764ff8f8bce80b9fa1578a7f4b2658f86c',
    'random_cutwidth/shuffled: build-tree --padded --shift 3': '766e32f8856b4f7accaf00acfe5044764ff8f8bce80b9fa1578a7f4b2658f86c',
    'random_cutwidth/shuffled: distribution --explicit --csv': '9efa3ef27a966c58bc24547113b9587d862195596241432a3a37224ed82e79d3',
    'random_cutwidth/shuffled: distribution --sample 3 --seed 5': '635289e145e712593ae940bb4720b706e1afb259ba47bf7005859e0c88da7d68',
    'random_cutwidth/shuffled: cutwidth-tree --best-shift': '13ac26d9fc9d5bcde7d0199ab4f1e694bc154976574cdeb78e378d3c3ec98b4e',
    'random_cutwidth/shuffled: cutwidth-tree --seed 2': '872960e66e2d2f2cc04620bfc9c50bb512c59de55bb1f9af073437b1298f3c59',
    'cycle 33/folded: distribution --explicit --csv': '0d10f2596e5d5bc993ac6636a5d0f6ed9a0e25aa59f26e8f3d0538e39cde0d76',
    'cycle 33/folded: cutwidth-tree --best-shift': '12a4b0d684819122ce262f089e74d63007afcbe429b42d918714bd8422364c56',
    'grid 33/shuffled: distribution --explicit --csv': '03290f41c9cbc058b377a7e1b75209ce4accceb595f424fe1dd40a3f8b428e7b',
    'grid 33/shuffled: cutwidth-tree --best-shift': '1bbd84760168f19c974a091bd42be2c4182f045836a162509ee684bf5fe98f02',
    'random_bandwidth 33/shuffled: distribution --explicit --csv': '9a30f90d942c930d3de3ff99548c06f42c879d628eeb64c4696d310f4a7f5032',
    'random_bandwidth 33/shuffled: cutwidth-tree --best-shift': 'f0f73db4fae61eef94ca28570510393937fec8f899ca70a814fefde91497172b',
    'random_bandwidth 3000/identity: stats': '7676df090732cef715d096be76c119d0e5240bb827569f80879cf7c2a4d5cdec',
    'random_bandwidth 3000/identity: build-tree': '90f5d3a2b2fa4e77dd12d101dd4d22ead77ffe429eed74f8225c8c93fc93fa69',
    'K4: dp-min-stretch': '052e12f0843d54981605634f15d2611cf6021c6422d27a2cd2b9eccefa11a7e8',
    'K4: oracle --histogram': 'efd2e3d85ca3b296598eb0ad34a39d3c6cac988b6536debf6773627ad3e27807',
    'grid 2x3: dp-min-stretch': '06b87a5d6e83f25a362bf1ad645953285dba13cd795bfe7b5b3afc822c63a555',
    'grid 2x3: oracle --histogram': '74993b2ae25358107a2f2061a810406120ee6b26f9f361c8af354963d953e2a1',
    'grid 4x3: dp-min-stretch': '852154e3300411952fa4c728f5935ea6f2f714e7cba6a1c29f04fd6e3f32c5e7',
    'grid 3x3: dp-min-stretch': 'e6c945f90767635efa2e4dacc4649a4a6e7a045838570298ffc6c6adfe7b1e59',
    'cycle 3: dp-min-stretch': '86679ad393e4de06fca614b90f27ee86b39302084650626eb183684ab617ebb1',
    'cycle 4: dp-min-stretch': 'eada9488efb7560d591101a934477fd22d2b189d4412b90df179c7f9d47a8d32',
    'cycle 5: dp-min-stretch': 'e940bf7b046f4919b076b3b28cc1f120ad753515a8ffcfdca4b71073c56d9426',
    'cycle 6: dp-min-stretch': '0ab27cde4441ffab931b128fe2f2250e3073e374dc23f60d9d4686c41669b1d6',
    'cycle 7: dp-min-stretch': 'e851191ca8a3bd36f914523abcc96f99ac8753ee4b84c8e6a5cfbd113e90f815',
    'cycle 8: dp-min-stretch': '5fb93cc02cab939f1dc15deb36ecfd6314eb5237161f7cd3c34e29454e14c815',
    'cycle 9: dp-min-stretch': '8ad8953360f5820cfb58f1c005f51d3244faaa43b148b8a010c884404c5cd1b1',
    'cycle 10: dp-min-stretch': '305df8d2f5ae35bacfe4299392eadb7a3c4d5af97f516d4bf2a3cf888e287d72',
    'cycle 11: dp-min-stretch': 'f77ec7aed9d8260d631c7e669e2e8942a206022e8be9c29b8725fa76058edd1e',
    'cycle 12: dp-min-stretch': '33e2428a15f763f5f8762ade3f8d5cdc84e93a1b1e007733b999fb52e94d0564',
    'caterpillar 3: dp-min-stretch': '2cedd7d4031f3193ddaaba50519b2351f260f717ece78a4fdcf08944a721dc2c',
    'caterpillar 4: dp-min-stretch': '1733a1c8d302443b24123c6567cf74888d44bb7dcef0bc20dfc0845d73797ebb',
    'caterpillar 5: dp-min-stretch': 'd52058a7ea9623251f34ef7a6a2d714bb51de71a5aa2fe8b2915a598ccadb496',
    'caterpillar 6: dp-min-stretch': 'a83f84c48315ee4459cabf228ded3bcd545604dc1433b6d62955fd175b6688c5',
    'caterpillar 7: dp-min-stretch': 'c8aab4ff5ec3a236e3d8f7a5e1ca34563689fd695f0cce9c5898201589da1208',
    'caterpillar 8: dp-min-stretch': '77e81dd4dec0971f4efa6ec58ce8dec232a1866344a09714b8a21d1b5217fc19',
    'caterpillar 9: dp-min-stretch': 'efab1210e0719619ab042174298dd458e652fb6139b6abef3b49c467c00a1175',
    'caterpillar 10: dp-min-stretch': 'f8df05d712b00652ebb8a97c1b13fd1f9c5923a4ac681a2ae9a89618a0c241e2',
    'caterpillar 11: dp-min-stretch': '451bea4e30ee15fbc06a43c7519eefaf2a4e726c0e20d188d5d27a66796df009',
    'caterpillar 12: dp-min-stretch': 'fdb057bf4eb68a4e6f87e7f4041a698dccd16157639189016b7686c08b9c5b5b',
    'path 3: dp-min-stretch': '2cedd7d4031f3193ddaaba50519b2351f260f717ece78a4fdcf08944a721dc2c',
    'path 4: dp-min-stretch': '1733a1c8d302443b24123c6567cf74888d44bb7dcef0bc20dfc0845d73797ebb',
    'path 5: dp-min-stretch': 'd52058a7ea9623251f34ef7a6a2d714bb51de71a5aa2fe8b2915a598ccadb496',
    'path 6: dp-min-stretch': 'a83f84c48315ee4459cabf228ded3bcd545604dc1433b6d62955fd175b6688c5',
    'path 7: dp-min-stretch': 'c8aab4ff5ec3a236e3d8f7a5e1ca34563689fd695f0cce9c5898201589da1208',
    'path 8: dp-min-stretch': '77e81dd4dec0971f4efa6ec58ce8dec232a1866344a09714b8a21d1b5217fc19',
    'path 9: dp-min-stretch': 'efab1210e0719619ab042174298dd458e652fb6139b6abef3b49c467c00a1175',
    'path 10: dp-min-stretch': 'f8df05d712b00652ebb8a97c1b13fd1f9c5923a4ac681a2ae9a89618a0c241e2',
    'path 11: dp-min-stretch': '451bea4e30ee15fbc06a43c7519eefaf2a4e726c0e20d188d5d27a66796df009',
    'path 12: dp-min-stretch': 'fdb057bf4eb68a4e6f87e7f4041a698dccd16157639189016b7686c08b9c5b5b',
    'verify --suite all --seed 0': '7961d70f8696f70986ebddd3862511e90c125b807a9457c01fb2c1195ada8bc8',
}


def test_cli_outputs_match_golden_digests(tmp_path):
    digests = golden_digests(tmp_path)
    assert digests.keys() == GOLDEN.keys()
    changed = [case for case in GOLDEN if digests[case] != GOLDEN[case]]
    assert changed == []


def test_build_tree_is_the_padded_tree_at_shift_0(tmp_path):
    """The arrangement tree's split heights are the padded ones at shift 0, so
    the two reports agree byte for byte on every graph and arrangement."""
    for label, graph, arr_args, _ in arrangement_corpus(tmp_path):
        argv = ["build-tree", "--graph", graph, *arr_args]
        assert _run(argv) == _run([*argv, "--padded", "--shift", "0"]), label


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for case, digest in golden_digests(Path(work)).items():
            print(f"    {case!r}: {digest!r},")
