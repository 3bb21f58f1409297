"""Byte-stability gate: the artifacts of the five reference codes of
scripts/build_verify_simulate.py, the bundles and reports of four codes
whose top field is too large for log tables, and the field-size rows of
scripts/field_size_comparison.py hash to recorded SHA-256 digests.

The determinism tests compare two runs of the same code; this one pins
the bytes across changes to the library.  Rank, determinant, reduced
echelon form and unique solutions do not depend on how elimination is
carried out, so a refactor that moves any digest has changed a result.
"""

import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from mrlrc.constructions import write_bundle
from mrlrc.simulate import SimConfig, run_simulation
from mrlrc.verify import code_id, table1_row, verify_mr_exhaustive, verify_mr_sampled

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_verify_simulate.py"
_spec = importlib.util.spec_from_file_location("build_verify_simulate", SCRIPT)
bvs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bvs)
_spec = importlib.util.spec_from_file_location(
    "field_size_comparison", SCRIPT.parent / "field_size_comparison.py")
fsc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fsc)

# "verify" is the report of both exhaustive routes, which serialize alike;
# "simulate" is 1000 adversarial_maximal trials at seed 2024; "sampled",
# "uniform_nodes" (h + delta - 1 failures) and "per_group_burst" are 300
# trials at seed 2024
DIGESTS = {
    "gen-r2-d2-t1-g2-N2-k5-h1": {
        "bundle.json": "be986ee0f9993081c79a7c0247ecdeae10aba0a71b54659c15f1d935cb7d9b6f",
        "bundle.G.srmat": "991d75c66c34162b545dcc57bc13ece4802533efe40d9ae5e32678c2b6d1dbab",
        "bundle.H.srmat": "ddc80c4c834a7d4c4736de5cc94387d57979f03214b3708217c6bc1d39857caf",
        "verify": "87dc696a8b7f393225ae14203621e5c8a1dfbfb199296bb719658f263414ed6c",
        "simulate": "4f51adb64fe39c2aab907cc2a769d926a01ab5a76dcfce69d17a03bb1c68cc2d",
        "sampled": "9dc48a87dfeb867fdcd5615db0af85ef5645a1915a205e73f6ee269d9110cd66",
        "uniform_nodes": "f5d0df391f324e3ab79a31cd9d40a00999193ba3da216ad24b9e8bc15d69777e",
        "per_group_burst": "2f5b84268fab11187d45f9c72efd7ac1c770fe364139a87f560c42033feb56c0",
    },
    "gen-r2-d3-t1-g2-N1-k3-h1": {
        "bundle.json": "c0aa709f8f18cad59da96a3fec4602d4c463f62d110bb3435c4fc70cd9e1b212",
        "bundle.G.srmat": "fbf33c88a2387d91095fed18616aaffbcd0efad2c43a8acd71671413071c84a4",
        "bundle.H.srmat": "4ce3954902abb7230279902a05bfed368c88ccdd26252250fc83a8048d674a94",
        "verify": "bc13ab8407428312e21ea7bcb055edab95eae9de6f6374df3cb5b364952e8c4c",
        "simulate": "1e54516be1211076d3ff7f1bf57dbf78c2d86d2b1cced0f35fb2b459157f0810",
        "sampled": "b895ac210a3fda946150899a9ad877789629d51fe7cd8f5f9879fff95194dec7",
        "uniform_nodes": "9eb065f9b207a34a30c397a5980ad2be414585d84d6b7ec9825cac657b48604e",
        "per_group_burst": "01711ae2fafb3cc313245fb8ec0ec94ace197318d243273e0b43c4ffb3a9c04f",
    },
    "gen-r3-d2-t2-g2-N2-k6-h2": {
        "bundle.json": "26aa4eccc9b38c8251250d41e1b79833fe7f74320798df8158330364b0acd2c3",
        "bundle.G.srmat": "c6ac53bf5d0ceafecd54773c3a770f52eb28ec9387fd202a656e87778b17f9f1",
        "bundle.H.srmat": "068c7938edb8ff313dcc57d31fe529d518ae25028f3211e3ca528a11b8ef7a4d",
        "verify": "393c369b88289326f1ca1334e6300a1153b80f397882e34edb87b7f01ac903c1",
        "simulate": "26d22958a7f691d434e62aa024b4186a6be87fceb5092cc89828705d5ab22bc9",
        "sampled": "fce953d66f3214fc54a681c27d5a65f1a72d79ff1eff2cce0ef0890f605fab38",
        "uniform_nodes": "12225cafbd28e976502ae0e1a445833368eb509fdb444061a6f8299715939181",
        "per_group_burst": "57de7dff55d0f947cb9f6a2ac348ac747428b97c8dd5e5a4ad28588db5197e7f",
    },
    "pc1-r2-d2-t1-g2-N2-k4-h2": {
        "bundle.json": "872b20b629a2fa262c6cf9b5aee4473357d12856d74aadde2fae31b428ead056",
        "bundle.G.srmat": "ac454a96887c75bc37bf9ced02bec2e2c187c64a7d7b42d5263d726d278d40bf",
        "bundle.H.srmat": "5507641355885416acd0faea426e95e3cf911bdf2450ef69c9111a16905c4eb8",
        "verify": "3b90e1ff201a9c31af485eac43f5cf1d709fa51ccf51a221157e3033f27d7632",
        "simulate": "8719de78c905d24db4cb9d57cd3a5efb41d6d46ba47ce2c07b0716e449c5f1b2",
        "sampled": "9793327c6acd5c6ab0e2fdf5746180cc0064310de43852dbcfff68800d26bcc2",
        "uniform_nodes": "d62d321ff41f5c55e811cad61e5e8f281feac517d7f0e07da6ab451dd8dabd29",
        "per_group_burst": "e130049e9779a989318bf0a04a4fffe67d07e22e9c71c7e49aaf54ea114e7fff",
    },
    "pc2-r2-d2-t1-g2-N1-k3-h1": {
        "bundle.json": "5841fcf652d88a37541097add961610d744443af0c2c249bf5454859aed3b87d",
        "bundle.G.srmat": "5dfe0dc1849fb2adb5b19f41ac48abbdef45def449841fca5da3cb788fb2e0e7",
        "bundle.H.srmat": "01175026867186bd22c7a96290244563e300dc1d168017fbd231d1254d73808e",
        "verify": "9c38b4a95a2c4a77898c2fcf7677a053f61917e8c3ee1af0cd3d038bd66cfb70",
        "simulate": "0db66d3219fb9673abdcf341d8e0a42c822927fc4cc6dbea41044a9ac063676d",
        "sampled": "1e39e2527140fbf90eced3f23bc2bdd87e86153648df94ca28ae6cd321c99935",
        "uniform_nodes": "bb9d1fa337d06e347aa33af25199d642c381d06998c83e6d89c6189ab96f4b19",
        "per_group_burst": "0ab612878b82bf983b3c475bcd68662abeb20b1b439ec4ec3a4cb659323140b0",
    },
}

# the bundles of the four codes of the benchmark's generic_field workload,
# whose top fields are above the 2^16 table limit; the last is the one
# tower there with a base field larger than GF(p)
GENERIC_CODES = (
    ("pc2", (2, 2, 1, 2, 2), {"h": 1}),     # GF(3) <= GF(3^14)
    ("pc2", (3, 3, 1, 2, 1), {"h": 1}),     # GF(5) <= GF(5^7)
    ("gen", (4, 2, 1, 1, 2), {"k": 7}),     # GF(5) <= GF(5^7)
    ("pc2", (1, 2, 1, 3, 2), {"h": 1}),     # GF(2^2) <= GF(2^20)
)
GENERIC_DIGESTS = {
    "pc2-r2-d2-t1-g2-N2-k5-h1": {
        "bundle.json": "3318e65e75df9757d73c947a7824fa7b4b2e515f0d62fecbcbcd12d36b9fd9bf",
        "bundle.G.srmat": "671a911fe037eb8dde7ffb010ebc6183d115442bd6429e5c711493e9b78b615e",
        "bundle.H.srmat": "e6fd26fed1f345ca0e528a2e1f3733d674a3cfd9f4d15599c5d63e56137b90f0",
    },
    "pc2-r3-d3-t1-g2-N1-k5-h1": {
        "bundle.json": "9f3d6e410a356702a4612b3f07f3a6a672861bf247d9c4d06134e634407506d1",
        "bundle.G.srmat": "7101d84c4d0906650bf0913c6e2ca1f95c4164a5c35bb687ef22baf6cb115828",
        "bundle.H.srmat": "f3bfad1de7c751112c114a70fbc4420f918339fa9e934f12f597955490afe039",
    },
    "gen-r4-d2-t1-g1-N2-k7-h0": {
        "bundle.json": "268f366f933ff034c8df555483a9d5116922c0e9589398b540ea06649e4c3e7e",
        "bundle.G.srmat": "518a1d0d5d58e51952b3f49aaa7d2d6bcb61ffe6f518a8e8d877c01d7d6bc014",
        "bundle.H.srmat": "f820bc306828f2f5d573b4a169a39c614800e06d3f20fd244f3314fb3fbfd9ac",
    },
    "pc2-r1-d2-t1-g3-N2-k2-h1": {
        "bundle.json": "0c75ca488175b0c0a55a9f58577cd9e26a83f330307c3b177ac7fe2286946073",
        "bundle.G.srmat": "f9aeda85a1c5b76472ff79fcca0c62ba52533fe7d9c56921748ff3e6fae1c718",
        "bundle.H.srmat": "44430e054b25c6cbf0d50b69e1f3d063e56f22ec8694742d037bc0231fda9706",
    },
}

# the reports of the same four codes, recorded while their fields still
# multiplied through digit tuples and inverted by a^(order - 2): "verify" is
# both exhaustive routes, "sampled" 50 verify_mr_sampled trials and
# "simulate" 100 adversarial_maximal trials, both at seed 2024
GENERIC_REPORT_DIGESTS = {
    "pc2-r2-d2-t1-g2-N2-k5-h1": {
        "verify": "c8c5125a4f67e63e7b37211814ff4e92b63589eb73cb62d4adb7b6289ab29ff1",
        "sampled": "7ae9fbd1dc62180f178cec61ee9eec9c0a8c9ed6ad1dfdcd556c028678ecf4b5",
        "simulate": "12dc0fa8e5054965e9b45268af2c227fe168f034da965c00ad284b7eab23281f",
    },
    "pc2-r3-d3-t1-g2-N1-k5-h1": {
        "verify": "53ae95480bd03e2009bc5261e76b0ea2eea2ee022bc0ca08a5fc0b66dfb38c06",
        "sampled": "9ef013aa85db86aa52e550fc023f0f25b0b770e4d61593a2d3bf8561eb2bd926",
        "simulate": "71e4eabdfcb02113bb7c28dd69eb26e99b4e3336089352fcd99ceac62df5575c",
    },
    "gen-r4-d2-t1-g1-N2-k7-h0": {
        "verify": "281f71086e574cf86b165117588f8a21b878a4f1d67f123dcbcf8d726ee13e78",
        "sampled": "a5f043f1d0fdf7b3744a6660810fac91a950dbfafa7c4c7cf231d97210b75175",
        "simulate": "54c0cf33ec1f2e2b6a62e1759987ce99bdeaa942c74a6ee2dbc62abb4f269046",
    },
    "pc2-r1-d2-t1-g3-N2-k2-h1": {
        "verify": "4d934320a06f80284d1ac13eb475273bede36c76b6ca991fb735c441ad907229",
        "sampled": "d5d6dfb01546e6688047b14635eaf5cf556865eeca10f43aff0c3ede709d7291",
        "simulate": "d14e08461db8616749252a03b9f2f1da909ab90e4084fb550dca66fb41258874",
    },
}

# the exhaustive reports, concatenated in the order of `mutants`, of the
# eight one-entry copies of each reference code, on each route
MUTANT_DIGESTS = {
    "gen-r2-d2-t1-g2-N2-k5-h1": {
        "generator": "ad63c00ee0faa8c6813fbac4a778a72ed2fd958e616b7f982bc48d9219ecb40e",
        "parity": "58a3d1099c8aa17f910a29aedf8521f265029c82f9bef338bd8a4a29fc41a8eb",
    },
    "gen-r2-d3-t1-g2-N1-k3-h1": {
        "generator": "4523e24af268331f6018418ced462d8f2d227d2defc0705296b8bfd27e31d46a",
        "parity": "a6b023f1a6cc9b5ac86703953179513c1547e21e8d5f29f740a7f128fc2385f5",
    },
    "gen-r3-d2-t2-g2-N2-k6-h2": {
        "generator": "7a695fda101dc446764d67f23bd4370b3a1bead414e43418366bafa7bd822790",
        "parity": "41b6f85b833af198f42ada47d2d171763039cc95a18ac340f2f3c244cd33079a",
    },
    "pc1-r2-d2-t1-g2-N2-k4-h2": {
        "generator": "e5314b362be0df902845d73b35fea1d5d1e0e13255c99fb286ea336f0d34cf5d",
        "parity": "bd70f12fdca9dc2e14e36486282910c2f70a450e28089f48de6e166204b19c83",
    },
    "pc2-r2-d2-t1-g2-N1-k3-h1": {
        "generator": "b70e8b2851e8f7298b970f924b270d25ba767431764f5d0a4b41a2e1bc7b601a",
        "parity": "5e90f9bb31c7bd35cfb6c435abad622b72fb80611d59f21b14a92a0f130ee632",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spec", bvs.REFERENCE_CODES,
                         ids=[f"{k}{p}" for k, p, _ in bvs.REFERENCE_CODES])
def test_reference_artifacts_match_recorded_digests(spec, tmp_path):
    code = bvs.build(*spec)
    expected = DIGESTS[code_id(code)]
    write_bundle(code, tmp_path)
    got = {name: sha256((tmp_path / name).read_bytes())
           for name in ("bundle.json", "bundle.G.srmat", "bundle.H.srmat")}
    for side in ("generator", "parity"):
        got["verify"] = sha256(verify_mr_exhaustive(code, side=side).to_json().encode())
        assert got["verify"] == expected["verify"], side
    sim = run_simulation(code, SimConfig(trials=1000, model="adversarial_maximal",
                                         seed=2024))
    got["simulate"] = sha256(sim.to_json().encode())
    got["sampled"] = sha256(verify_mr_sampled(code, 300, 2024).to_json().encode())
    for model in ("uniform_nodes", "per_group_burst"):
        failures = code.h + code.topo.delta - 1 if model == "uniform_nodes" else None
        rep = run_simulation(code, SimConfig(trials=300, model=model, seed=2024,
                                             failures=failures))
        got[model] = sha256(rep.to_json().encode())
    assert got == expected


@pytest.mark.parametrize("spec", GENERIC_CODES,
                         ids=[f"{k}{p}" for k, p, _ in GENERIC_CODES])
def test_generic_field_bundles_match_recorded_digests(spec, tmp_path):
    code = bvs.build(*spec)
    write_bundle(code, tmp_path)
    got = {name: sha256((tmp_path / name).read_bytes())
           for name in ("bundle.json", "bundle.G.srmat", "bundle.H.srmat")}
    assert got == GENERIC_DIGESTS[code_id(code)]


@pytest.mark.parametrize("spec", GENERIC_CODES,
                         ids=[f"{k}{p}" for k, p, _ in GENERIC_CODES])
def test_generic_field_reports_match_recorded_digests(spec):
    code = bvs.build(*spec)
    expected = GENERIC_REPORT_DIGESTS[code_id(code)]
    got = {}
    for side in ("generator", "parity"):
        got["verify"] = sha256(verify_mr_exhaustive(code, side=side).to_json().encode())
        assert got["verify"] == expected["verify"], side
    got["sampled"] = sha256(verify_mr_sampled(code, 50, 2024).to_json().encode())
    sim = run_simulation(code, SimConfig(trials=100, model="adversarial_maximal",
                                         seed=2024))
    got["simulate"] = sha256(sim.to_json().encode())
    assert got == expected


def mutants(code):
    """Copies of code with one entry of G, then of H, zeroed (or set to 1
    where it is already 0): at (0, 0) and at the first, middle and last
    column of the last row."""
    for which in ("G", "H"):
        m = getattr(code, which)
        last = m.rows - 1
        for i, j in ((0, 0), (last, 0), (last, m.cols // 2), (last, m.cols - 1)):
            yield replace(code, **{which: m.with_entry(i, j, 0 if m[i, j] else 1)})


@pytest.mark.parametrize("spec", bvs.REFERENCE_CODES,
                         ids=[f"{k}{p}" for k, p, _ in bvs.REFERENCE_CODES])
def test_mutant_failure_reports_match_recorded_digests(spec):
    code = bvs.build(*spec)
    muts = list(mutants(code))
    got = {}
    for side in ("generator", "parity"):
        reports = [verify_mr_exhaustive(m, side=side) for m in muts]
        assert not any(r.passed for r in reports), side
        got[side] = sha256("".join(r.to_json() for r in reports).encode())
    assert got == MUTANT_DIGESTS[code_id(code)]



# the sampled and simulator reports, concatenated in the order of
# `mutants`, of the four copies of each reference code with one entry of H
# changed, most of which fail: "sampled" is verify_mr_sampled(copy, 300,
# 2024), and the three simulator models run as in
# test_reference_artifacts_match_recorded_digests
MUTANT_H_DIGESTS = {
    "gen-r2-d2-t1-g2-N2-k5-h1": {
        "sampled": "8392b7899550890fb2504d4a3be44438071cb9ebcb20d09190db1456740da79b",
        "simulate": "bbe82c30bec8e749cccf0e3690bba62e1ad9167e068399a09d2a4d57f4d6f67c",
        "uniform_nodes": "a30f14c5d3cdab4b8ca50621869da46cc9cd37db006c92becfaedddce150bcc3",
        "per_group_burst": "734b59c574a6451d8617e685930a3efcc3864fc882d99a63cf6da8bb9987d1e8",
    },
    "gen-r2-d3-t1-g2-N1-k3-h1": {
        "sampled": "6e60220ce3c5ae03005f5a92d6dc81a68d9ce945d5475a24f49b61c8c918c792",
        "simulate": "d1729c6452366abfe0ace4a9a9e1c9a7fba8a470447204d1dee4d4e3b245d768",
        "uniform_nodes": "3e8b82957cd355940531797f7312e8aea6cbaaf1af52ab9fd0a06633b61fd84b",
        "per_group_burst": "ea4602d3cc6427e82659a7ad5ef34045abc8725a8847fd4b06ab09d1020fd98c",
    },
    "gen-r3-d2-t2-g2-N2-k6-h2": {
        "sampled": "586833d7a3939dab0a8156aea420acf7e1dbe29809b77ff5c76e256173c70835",
        "simulate": "d5436208b7cce033a8d52418be1a7edca3ceb4d3a2bdaa114b19dd594210770c",
        "uniform_nodes": "bd055d77aca7a289e673f637d85c7a158d00ae32a6861f4d9fb7ba9a6a33ba80",
        "per_group_burst": "33d4bf4c09613d94c4ca1dc234dbd60834e6e5d51b2e8975591e646031d50a67",
    },
    "pc1-r2-d2-t1-g2-N2-k4-h2": {
        "sampled": "7b3de6162c11d5d63603391d26d6df8137dcc333e563349333e2f510b1a3f04e",
        "simulate": "a4bae1b8bfedda6d81108648d07e3ee54582e95a398319ff4fa51cf59dcfa61a",
        "uniform_nodes": "05b865caada5026fd028938af344409926d41a03e9e0141d4b20e18d92c9c668",
        "per_group_burst": "d763ae1ead18f9b508baa8506ad32a67c92a0811a544ce96b6b46c914c7b66fd",
    },
    "pc2-r2-d2-t1-g2-N1-k3-h1": {
        "sampled": "9bc961d7118e4684b317da499a19139b9c86f3f91403f6e5da89a7c465bd4474",
        "simulate": "5ba3c0dafc7026a5e5a756a3cb382af39210752c9ca1f598c7bdafe0224a5519",
        "uniform_nodes": "c6fa09237ab4f98ce50f9bffbb93c732d166db12f7e51e67783b880576a46634",
        "per_group_burst": "a7f58aa76acc7084a49a09c47df40d58ac0c11b0d948054067d521cdd266f67d",
    },
}


@pytest.mark.parametrize("spec", bvs.REFERENCE_CODES,
                         ids=[f"{k}{p}" for k, p, _ in bvs.REFERENCE_CODES])
def test_mutant_sampled_and_simulator_reports_match_recorded_digests(spec):
    code = bvs.build(*spec)
    muts = list(mutants(code))[4:]

    def digest(reports):
        return sha256("".join(r.to_json() for r in reports).encode())

    got = {
        "sampled": digest(verify_mr_sampled(m, 300, 2024) for m in muts),
        "simulate": digest(run_simulation(m, SimConfig(
            trials=1000, model="adversarial_maximal", seed=2024)) for m in muts),
    }
    for model in ("uniform_nodes", "per_group_burst"):
        failures = code.h + code.topo.delta - 1 if model == "uniform_nodes" else None
        got[model] = digest(run_simulation(m, SimConfig(
            trials=300, model=model, seed=2024, failures=failures)) for m in muts)
    assert got == MUTANT_H_DIGESTS[code_id(code)]

# table1_row JSON, one line per setting, over the grid that
# field_size_comparison.py walks with its defaults (delta = 2) and with
# --delta 1: 330 settings each
TABLE1_DIGESTS = {
    2: "05c7a3a8fd552a76f425791e066a637b8a06d1a280923916eee410448a485d3f",
    1: "13a4c24648282af888decbc346052993fa4e2abcebc50cb1618831e7a46259fc",
}


@pytest.mark.parametrize("delta", sorted(TABLE1_DIGESTS))
def test_field_size_rows_match_recorded_digests(delta):
    rows = "".join(json.dumps(table1_row(topo, h=h)) + "\n"
                   for topo, h in fsc.settings(5, 6, delta, 2))
    assert sha256(rows.encode()) == TABLE1_DIGESTS[delta]
