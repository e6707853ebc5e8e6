"""Golden sha256 digests of CLI artifacts, pinned across code changes.

The acceptance gate checks that reruns are byte-identical; these digests
check that artifacts stay identical from one version of the code to the
next.  They cover the acceptance sweep (MASTER_SEED, q = 5..13), an r=3
build and its pattern count, a three-variable build over GF(9), and two
builds that exercise rejection: one with resamples only, one with restarts,
and two exact_z runs (r=2 and r=3) with their search-node counts.  A change
that moves any digest changes what the pipeline selects, emits, certifies,
counts or searches.
"""

import hashlib
import warnings
from pathlib import Path

import pytest

from zng.cli import run
from zng.config import ExperimentConfig

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

# (config fields, digests) for single builds at MASTER_SEED
BUILDS = {
    "three-vars-gf9": (
        dict(s=(3,), t=9, q=(9,), m=(6,)),
        {
            "certificate.json": "4e48e3930c9d58bc4d4945340b47bd3f2db1425072621bf1319a79b2215f1f21",
            "graph.zng": "8d19d0ebc9e9b6fcce034f7dc8d521742c3e2fdbeb9a9dcb13212ffb17659b7b",
        },
    ),
    "resamples": (  # 88 resamples, no restart
        dict(s=(2, 2), t=5, q=(5,), m=(5, 5)),
        {
            "certificate.json": "1debdde426e39e6cd178b1f32e8f88c9b817b317303aff4efb82c29927292a3c",
            "graph.zng": "9747d92a8cca2fc8a34d716a24997cd730bef5a295c5bc63d733a54640ce1057",
        },
    ),
    "restarts": (  # 33 resamples over 6 restarts
        dict(s=(2,), t=2, q=(5,), m=(24,), retries=8),
        {
            "certificate.json": "0c616531516cbd9395b1abdbba74600a0027798c158369fc5a6e0074b139b476",
            "graph.zng": "96d2060a24577946009766fec615bc28982a498f4993f09b08d7c8eac107969c",
        },
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


def _run(out: Path, **fields) -> dict[str, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(ExperimentConfig(out=str(out), **fields)) == 0
    return _digests(out)


def test_acceptance_sweep_digests(tmp_path):
    digests = _run(
        tmp_path, mode="sweep", s=(2,), t=4, q=(5, 7, 9, 11, 13), seed=MASTER_SEED
    )
    assert digests == SWEEP_DIGESTS


def test_r3_build_and_count_digests(tmp_path):
    build_dir = tmp_path / "build"
    digests = _run(
        build_dir, mode="construct", s=(2, 2), t=16, q=(7,), m=(5, 5), seed=MASTER_SEED
    )
    assert digests == R3_BUILD_DIGESTS
    digests = _run(
        tmp_path / "count", mode="count", s=(2, 2, 2), graph=str(build_dir / "graph.zng")
    )
    assert digests == R3_COUNT_DIGESTS


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_digests(tmp_path, name):
    fields, expected = BUILDS[name]
    assert _run(tmp_path, mode="construct", seed=MASTER_SEED, **fields) == expected


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_digests(tmp_path, name):
    m_list, s_list, z, nodes, expected = ORACLES[name]
    assert _run(tmp_path, mode="oracle", m=m_list, s=s_list) == expected
    row = (tmp_path / "oracle.tsv").read_text().splitlines()[1].split("\t")
    assert row[1:3] == [str(z), str(nodes)]
