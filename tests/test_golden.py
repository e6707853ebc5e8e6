"""Golden sha256 digests of CLI artifacts, pinned across code changes.

The acceptance gate checks that reruns are byte-identical; these digests
check that artifacts stay identical from one version of the code to the
next.  They cover the acceptance sweep (MASTER_SEED, q = 5..13), an r=3
build and its pattern count, a 121-prefix r=3 build at q = 11, a
three-variable build over GF(9), (2, 2) builds at q = 8 (characteristic 2
at S = 4) and q = 17 (4,913 domain points), r=2 builds at q = 61 (with the
full pattern table), q = 127, 251 and 307 (above the table cap) and over
GF(2^8) and GF(3^5), S = 2 builds at
r = 3 with s = (1, 2) and (2, 1) that resample and one at q < t, verify and
count on two r=2 graphs (q = 61 past the table cap, q = 13 with its full
table) with their status lines, and two builds
that exercise rejection: one with resamples only, one with restarts, two
exact_z runs (r=2 and r=3) with their search-node counts, and exact_z's
value, node count and witness on every small shape.  A change that moves
any digest changes what the pipeline selects, emits, certifies, counts or
searches.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import BALANCED_SPLIT, OVER_CAPACITY, logged_advice, small_shapes
from zng.cli import run
from zng.config import ExperimentConfig
from zng.oracle import ZQuery, exact_z

MASTER_SEED = 20260819

SWEEP_DIGESTS = {
    "q11/certificate.json": "45a782f63602fb4da0dbc35de44b141350025250994a0da5ea6aee39d428a17b",
    "q11/graph.zng": "0114678128122be3d68ce3f9d1bc6df0f79f98406cdc53cfe1bbc87f362db87d",
    "q13/certificate.json": "ae4810bd22b0666208d13f0036edd06faf82d7dbcf4053639bceb68856264ea7",
    "q13/graph.zng": "6deedc67fc4190b46629b5248e6c742b3918c6725391148363cda2218bc3abcb",
    "q5/certificate.json": "585d7b862e4ccd539176bf325840a207845ece3d2d4af4a1ed7aafcea13cc3cb",
    "q5/graph.zng": "50d21e8b5829835a96b2dd2c5071edc25dd25043adda2ae3245fda023c6e5b1b",
    "q7/certificate.json": "0f6bd22e97ff7e1af46e860a0ed08bc80472cd780d555663a14dfc068e8caf14",
    "q7/graph.zng": "33725a55cc011c6d0773628d91bae97a16119f59c46d410bd3b5d8f590c59203",
    "q9/certificate.json": "32c5e574b36a57c0ee303409293940ccdc7c4a689d8b51fec85789174202b621",
    "q9/graph.zng": "07fa8c43eee86a4f688b584093962d2e02ec65e26a62c1a4b5a1cd2c00090950",
    "sweep.tsv": "a91f6fb4df88618514f81fa6b06ce9cd49c92b15c5533d3a5609181e94ba7f12",
}

R3_BUILD_DIGESTS = {
    "certificate.json": "17d3faa748455777a8f31e32b9531da8b60746a691ad2cc0f3cf7840b8a1c922",
    "graph.zng": "28ba166ccfdd92ea992e5aae4e46d8699c150ac88715e0f0134f7b19a487b2e4",
}

R3_COUNT_DIGESTS = {
    "count.json": "963469aec23405ee7e70348f8b1e1bdb35bcac0a0e4e560467fbf6f9696d7ad3",
}

# (config fields, the advice the run logs, digests) for single builds at MASTER_SEED
BUILDS = {
    "three-vars-gf9": (
        dict(s=(3,), t=9, q=(9,), m=(6,)),
        [],
        {
            "certificate.json": "4e48e3930c9d58bc4d4945340b47bd3f2db1425072621bf1319a79b2215f1f21",
            "graph.zng": "8d19d0ebc9e9b6fcce034f7dc8d521742c3e2fdbeb9a9dcb13212ffb17659b7b",
        },
    ),
    "resamples": (  # 88 resamples, no restart
        dict(s=(2, 2), t=5, q=(5,), m=(5, 5)),
        [OVER_CAPACITY],
        {
            "certificate.json": "1debdde426e39e6cd178b1f32e8f88c9b817b317303aff4efb82c29927292a3c",
            "graph.zng": "9747d92a8cca2fc8a34d716a24997cd730bef5a295c5bc63d733a54640ce1057",
        },
    ),
    "r2-q61": (  # 1,830 table rows, 205,608 certificate bytes
        dict(s=(2,), t=4, q=(61,), m=(61,)),
        [BALANCED_SPLIT],
        {
            "certificate.json": "64420903f2478c31009195e84b8dba7492f5df7541218a22b2243ae387012a17",
            "graph.zng": "2c4833cb9ac8cb032f5b24d2dd006e50bffecd11f320bc8aef21c0487e22d7f2",
        },
    ),
    "r2-q127": (  # 8,001 patterns, above TABLE_CAP: the family but no table
        dict(s=(2,), t=4, q=(127,), m=(127,)),
        [BALANCED_SPLIT],
        {
            "certificate.json": "15517b606f2ee5f859bd9f9da0d207cee55088caf77ae97df47e10971ea1f723",
            "graph.zng": "7a9cb90c073ceb1fbdd9f00724bd2dd0000b6c2aab3b218d1310225cdf6124f6",
        },
    ),
    "r2-q251": (  # 63,001 edges, 31,375 patterns: no table
        dict(s=(2,), t=4, q=(251,), m=(251,)),
        [BALANCED_SPLIT],
        {
            "certificate.json": "b6624134dcae4562fff124751b73ad348f18411e0f4daa088c0437d7c5c64558",
            "graph.zng": "6763517e47f68fbe6b0b04845d307f114bfde21fac0d4293a9758e67c492efdb",
        },
    ),
    "r2-q307": (  # 94,249 edges, 46,971 patterns, masks of 1,473 words: no table
        dict(s=(2,), t=4, q=(307,), m=(307,)),
        [BALANCED_SPLIT],
        {
            "certificate.json": "facc86cf2fdd610c302a81d54fc5b5c68d55577df1d3554b931a2c8b14dae0da",
            "graph.zng": "3f09b16f57ece4af70e415826da949c2654b3b690d6fc9d7ce7590720a5e4976",
        },
    ),
    "r3-q11": (  # 161,051 edges on 121 prefixes, above capacity
        dict(s=(2, 2), t=16, q=(11,), m=(11, 11)),
        [OVER_CAPACITY],
        {
            "certificate.json": "749830e09da7eaa6f36dd334e0c2bb1730553eb6a67e6e4cbf53078f14733fd2",
            "graph.zng": "c4f3b041f1f99b5a495c18dfb46c317cb423df9c56b8c30fd036be4052abf08c",
        },
    ),
    "r3-s12-gf4": (  # S = 2 in part 2 of r = 3: 6 resamples on lines of fixed part 1
        dict(s=(1, 2), t=2, q=(4,), m=(3, 8)),
        [OVER_CAPACITY],
        {
            "certificate.json": "c574b2eb1e1860d2f3c44d5b7fdf9f38cacbeb0a3b951ff658449cb8cd0616bd",
            "graph.zng": "e5efba3b209f6b3f5bab3f5ebdc6a1b11e845eae998ebffb54599e398525a692",
        },
    ),
    "r3-s21-q5": (  # S = 2 in part 1 of r = 3: 7 resamples on lines of fixed part 2
        dict(s=(2, 1), t=2, q=(5,), m=(10, 4)),
        [OVER_CAPACITY],
        {
            "certificate.json": "065c2ded1ffa6831a04e6245eaebb24b78a9f84ef34bb14ec2ec89cef97372fb",
            "graph.zng": "380e25211fef7eb9450f9f677ba63427eb6d34bb3e9304e3501a03079f9c2821",
        },
    ),
    "r2-q3-below-t": (  # q < t: no pattern reaches t, so equal polynomials are kept
        dict(s=(2,), t=4, q=(3,), m=(12,)),
        [BALANCED_SPLIT],
        {
            "certificate.json": "1f7b5da1499572b64758ffe89b25cb46a1f3c7645580dacb9865ac0d833503f5",
            "graph.zng": "b68f802a0a852a4dc7477d731b3de0c51d92663c4c8cbcccc37110f4bbd8dc31",
        },
    ),
    "r3-q8-char2": (  # 32,768 edges over GF(8): characteristic 2 at S = 4
        dict(s=(2, 2), t=16, q=(8,), m=(8, 8)),
        [OVER_CAPACITY],
        {
            "certificate.json": "585c98773bf610654dbd39bf9a211bf23ef94e817cb2a618f290481e6422cc80",
            "graph.zng": "89fd6176278a1b683a34abd1018758d3b8b7b8d7abc68e588465f46709fcd0c3",
        },
    ),
    "r3-q17": (  # 1,419,857 edges on 289 prefixes, 4,913 domain points
        dict(s=(2, 2), t=16, q=(17,), m=(17, 17)),
        [OVER_CAPACITY],
        {
            "certificate.json": "65e37d74f85b9abfb78ea5834cc2ae561417d9d948c3782e2e3d7a0702356993",
            "graph.zng": "e29ae276227d50c7aca369ea8635db83e2cc411617f02a5070ddcce24515be65",
        },
    ),
    "r2-q256": (  # GF(2^8): eight base-2 digits
        dict(s=(2,), t=4, q=(256,), m=(256,)),
        [BALANCED_SPLIT],
        {
            "certificate.json": "c67c258a086259e1104a9f5a5575627e313ae7cebe4df111eaf1e6c69c4c1bfc",
            "graph.zng": "a8b35e5721b1f0bc29d83a4d25317e28e88da631cc6ebcd63163c944071f5106",
        },
    ),
    "r2-q243": (  # GF(3^5): five base-3 digits
        dict(s=(2,), t=4, q=(243,), m=(243,)),
        [BALANCED_SPLIT],
        {
            "certificate.json": "97c53d93ee9fd5fe1dafcce30a80b4f2a4310eb4df5e8540ded038b21f986af7",
            "graph.zng": "77715a3141ec5a77b6e3d5ccf54caed25d5c9fd0272c4b5bb7350be40b4139ff",
        },
    ),
    "restarts": (  # 33 resamples over 6 restarts
        dict(s=(2,), t=2, q=(5,), m=(24,), retries=8),
        [OVER_CAPACITY],
        {
            "certificate.json": "0c616531516cbd9395b1abdbba74600a0027798c158369fc5a6e0074b139b476",
            "graph.zng": "96d2060a24577946009766fec615bc28982a498f4993f09b08d7c8eac107969c",
        },
    ),
}

# (build fields, analysis fields, digests, status line without graph and out):
# verify and count on r=2 graphs built at MASTER_SEED.  q61 is the benchmark's
# analyze r2 graph (BUILDS["r2-q61"]); its 35,990 patterns at s=3 are past
# TABLE_CAP.  q13 has 169 edges and 286 patterns at s=3, so its full table
# is written.
R2_ANALYSES = {
    "verify-q61": (
        dict(s=(2,), t=4, q=(61,), m=(61,)),
        dict(mode="verify", s=(3,), t=9),
        {"certificate.json": "e68c25d42f0bde01603b06aea9c2fc00f97c3c152f03557eed4bb3c862ce0622"},
        {"argmax_pattern": [[0, 27, 39]], "max_size": 2, "mode": "verify", "passed": True, "t": 9},
    ),
    "count-q61": (
        dict(s=(2,), t=4, q=(61,), m=(61,)),
        dict(mode="count", s=(3, 2)),
        {"count.json": "1e95d33d1a1822b3ba27d8994263c243571746ef8e5c790667a921cb17d8d370"},
        {
            "bound_holds": True, "density": "1/61", "exact": 10, "intermediate": 640,
            "lower_bound": "0", "mode": "count", "s_list": [3, 2],
        },
    ),
    "verify-q13-table": (
        dict(s=(2,), t=4, q=(13,), m=(13,)),
        dict(mode="verify", s=(3,), t=9),
        {"certificate.json": "252c556cb1bb1b5ae35800f5a2e8262123aac124bee4b1430608babdc12f0a21"},
        {"argmax_pattern": [[0, 1, 9]], "max_size": 1, "mode": "verify", "passed": True, "t": 9},
    ),
}

# (m, s) -> (z, nodes, digests) for exact_z through the oracle mode
ORACLES = {
    "z-7x5": (
        (7, 5), (2, 2), 15, 239_499,
        {
            "oracle.tsv": "b8e8726c2b1ee2e224d9859f39933fad74f11c3c6f72708bfd0cb2b8d5a6aac0",
            "witness_7x5_2x2.zng": "1e18d98800cc3e8cf04a594cc44e1aa89b41dd17acb9384262a47da0e6a713a6",
        },
    ),
    "z-5x3x2": (
        (5, 3, 2), (2, 2, 2), 23, 67_234,
        {
            "oracle.tsv": "ee9ababe1b8bad0cfdac13d09ac1b90bd10762cb34b81d046ff9e68ad78ed303",
            "witness_5x3x2_2x2x2.zng": "038d3c6a5ea7851ae3b70214a4f3252d49dbdc8139a8ea4dd8e413e2f90bbccb",
        },
    ),
}


def _digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def _run(capsys, out: Path, advice: list[str], **fields) -> dict[str, str]:
    """Run one config into out and return its digests; advice is the logged_advice it gives."""
    assert run(ExperimentConfig(out=str(out), **fields)) == 0
    assert logged_advice(capsys.readouterr().err) == advice
    return _digests(out)


def test_acceptance_sweep_digests(tmp_path, capsys):
    digests = _run(
        capsys,
        tmp_path,
        [BALANCED_SPLIT] * 5,  # m = q on every point
        mode="sweep", s=(2,), t=4, q=(5, 7, 9, 11, 13), seed=MASTER_SEED,
    )
    assert digests == SWEEP_DIGESTS


def test_r3_build_and_count_digests(tmp_path, capsys):
    build_dir = tmp_path / "build"
    digests = _run(
        capsys,
        build_dir,
        [OVER_CAPACITY],  # 25 tuples, capacity 1
        mode="construct", s=(2, 2), t=16, q=(7,), m=(5, 5), seed=MASTER_SEED,
    )
    assert digests == R3_BUILD_DIGESTS
    digests = _run(
        capsys,
        tmp_path / "count",
        [],
        mode="count", s=(2, 2, 2), graph=str(build_dir / "graph.zng"),
    )
    assert digests == R3_COUNT_DIGESTS


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_digests(tmp_path, capsys, name):
    fields, advice, expected = BUILDS[name]
    assert _run(capsys, tmp_path, advice, mode="construct", seed=MASTER_SEED, **fields) == expected


@pytest.mark.parametrize("name", sorted(R2_ANALYSES))
def test_r2_analysis_digests_and_status(tmp_path, capsys, name):
    build, fields, expected, status = R2_ANALYSES[name]
    graph = tmp_path / "build" / "graph.zng"
    _run(capsys, graph.parent, [BALANCED_SPLIT], mode="construct", seed=MASTER_SEED, **build)
    out = tmp_path / "analysis"
    assert run(ExperimentConfig(out=str(out), graph=str(graph), **fields)) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (line.pop("graph"), line.pop("out")) == (str(graph), str(out))
    assert line == status
    assert _digests(out) == expected


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_digests(tmp_path, capsys, name):
    m_list, s_list, z, nodes, expected = ORACLES[name]
    assert _run(capsys, tmp_path, [], mode="oracle", m=m_list, s=s_list) == expected
    row = (tmp_path / "oracle.tsv").read_text().splitlines()[1].split("\t")
    assert row[1:3] == [str(z), str(nodes)]


# sha256 of one line per shape: label, z, nodes and the witness edges
SEARCH_TREE_SHAPES = 579
SEARCH_TREE_DIGEST = "de459b011b1d6e5bf7bbdfb8bbd3001ee6081068485170e2e9035e109a344589"


def test_search_tree_digest_on_every_shape_up_to_10_edges():
    """The search visits the same tree: equal nodes and witness on 579 shapes."""
    digest = hashlib.sha256()
    shapes = 0
    for m_list, s_list in small_shapes(10):
        result = exact_z(ZQuery(m_list, s_list))
        edges = ";".join(",".join(map(str, edge)) for edge in result.witness.edges)
        line = f"{result.query.label()}\t{result.z}\t{result.nodes}\t{edges}\n"
        digest.update(line.encode("ascii"))
        shapes += 1
    assert shapes == SEARCH_TREE_SHAPES
    assert digest.hexdigest() == SEARCH_TREE_DIGEST
