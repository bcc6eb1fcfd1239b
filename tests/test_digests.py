"""Byte-identity gate: the SHA-256 of every result file of a few small
commands, pinned.  A change that alters any output byte fails here; a
change meant to alter outputs must update the digests and say why.
"""

import hashlib

import pytest

from foliate.cli import EXIT_OK, main

RUN = ["run", "--model", "poisson", "--intensity", "1"]

COMMANDS = {
    "mnn_torus": RUN + [
        "--torus", "20x20", "--shift", "mnn", "--n-max", "5",
        "--seed", "11", "--realizations", "2",
    ],
    "strip_window": RUN + [
        "--window", "40x40", "--buffer", "2", "--shift", "strip", "--n-max", "5",
        "--fractions", "0.25,0.5,0.75,1.0", "--seed", "12", "--realizations", "2",
    ],
    # strip_window's realization 0 alone: the same ladder bytes as that run
    "strip_window_ladder": [
        "ladder", "--model", "poisson", "--intensity", "1", "--window", "40x40",
        "--buffer", "2", "--shift", "strip", "--fractions", "0.25,0.5,0.75,1.0",
        "--seed", "12",
    ],
    "condenser_window_1d": RUN + [
        "--window", "400", "--buffer", "2", "--shift", "condenser",
        "--seed", "13", "--realizations", "2",
    ],
    # the window path of the neighbor search: clipped cell offsets, censoring
    "mnn_window": RUN + [
        "--window", "40x40", "--buffer", "2", "--shift", "mnn", "--n-max", "5",
        "--seed", "15", "--realizations", "2",
    ],
    # the 2-D condenser: walk-mode relative intensity on a censored window
    "condenser_window_2d": RUN + [
        "--window", "40x40", "--buffer", "2", "--shift", "condenser", "--n-max", "5",
        "--seed", "16", "--realizations", "2",
    ],
    # the pattern files' bytes, as written by PointPattern.to_json
    "save_patterns": RUN + [
        "--window", "20x20", "--buffer", "2", "--shift", "strip", "--n-max", "3",
        "--seed", "17", "--realizations", "2", "--save-patterns",
    ],
    # the cluster model and its metadata in the saved pattern files
    "cluster_multitype_strip": [
        "run", "--model", "poisson_cluster", "--window", "30x30", "--buffer", "2",
        "--shift", "multitype_strip", "--seed", "18", "--realizations", "2",
        "--n-max", "3", "--save-patterns",
    ],
    # next_row cycles longer than 2: foils numbered from a cycle anchor
    "grid_next_row_torus": [
        "run", "--model", "bernoulli_grid", "--p", "0.5", "--torus", "40x60",
        "--shift", "next_row", "--n-max", "5", "--seed", "21", "--realizations", "3",
    ],
    # next_row on a censored window, with the ladder
    "grid_next_row_window": [
        "run", "--model", "bernoulli_grid", "--p", "0.6", "--window", "40x40",
        "--buffer", "2", "--shift", "next_row", "--n-max", "4", "--seed", "22",
        "--realizations", "2", "--fractions", "0.5,1.0",
    ],
}

DIGESTS = {
    "mnn_torus": {
        "components.csv": "dea1e22adde595ba676e5a100dd9f32ceb451c838909f6fe2dda727ed07f9f35",
        "stats.csv": "3e579d4a0e6b9d51ccdad21b62b3758c3bf5b4115dea60970c0425e2cfd8a7d1",
        "stats.json": "03b5eb2169972afd3608409a647a321cbf52bfcb66457875d79a7a00ee40e111",
        "verify.csv": "5fe64e1a0565e24279d88511e58b7aa93fbc3ca62b6766771f9b41d3e4c8030f",
        "verify.json": "c2c54779b71f499b56651f796d10f385ab212e12bf4bbced5098f976a2ef64c0",
    },
    "strip_window": {
        "components.csv": "072924bac8094427173d727d52afb7df1861e150488b4ff483caf4aebefdb792",
        "ladder.csv": "4adb75ccbcd79faca34941b75ef3f8ed5291f317d92717eda25d55bec29d239b",
        "stats.csv": "0d004d359e167f2a07e92cd648f2552ca68c72f6ad8fcbeec8adba7a4576002c",
        "stats.json": "fb9815d39d710d9335c283d955f19c856d8abaccc926e1ef8399a1bd885c6f55",
        "verify.csv": "9bad48c2a3bb961be0c28365de4525933fed07e3ecf884d4a9a5c9fb5640a00d",
        "verify.json": "5385be1373c7615b38476d40d7ef5c2562800202a026ab4672b2d66c791ec0a3",
    },
    "strip_window_ladder": {
        "ladder.csv": "4adb75ccbcd79faca34941b75ef3f8ed5291f317d92717eda25d55bec29d239b",
    },
    "condenser_window_1d": {
        "components.csv": "aee6579ee17471b373675789b805755e3ea11b4e18a3c5c78002d83528ae16d7",
        "stats.csv": "42dd4222df5b746f2ba363c2389b907d981e356937c7ec3d17a259ec03c612f2",
        "stats.json": "51e0002aa9fab4de787a1f4beb36e0a69b8340e53a021ef9872caf79c1a23953",
        "verify.csv": "239951ec05f3c7e96d7576c6f6683bf70080fa5e58c465b31b43032af957f208",
        "verify.json": "4ab2aec2d5fd4c6b7bdcf313cdf5ea8baf7923d70ed0e07ae48cee222f771208",
    },
    "mnn_window": {
        "components.csv": "b71e336fd5fb1bcf7b2a3b0d539f41cc3da6e79fc603e1624239dd9f000dc518",
        "stats.csv": "ed50d57c0f6639e9c187c4dda8b811eb6b79315a3002e13be2315c89d6b09310",
        "stats.json": "0d3ea634c549e485bdcd00ae73a2b3d477961374d52e43fcc5c2700acf2c9580",
        "verify.csv": "ec91b2ce25b4e70c573aa32d6733b947673233fbcc04f98a7bca61e2e5a28033",
        "verify.json": "645321172450548e06da9eea172c103fac3ead3ea336ca63f3c780a0b5eb1429",
    },
    "condenser_window_2d": {
        "components.csv": "2ee8a96e874f810524e79bbce388875a47b32da60a1008f3155b0904effb63f8",
        "stats.csv": "78a820e9da2c904c72bb2d479c75de7a76abc81d462456505df1d16e28c716c6",
        "stats.json": "15da93b682a91fe598b80c6bdfa9feccd502c9010e7859adfdd70b38eb24405b",
        "verify.csv": "9867c7e129adebc8b1bb8531214c14459f253c73d9908126ab8b255c0f6cc673",
        "verify.json": "9a50c47ce8af566f956164d5ea1ec8eaf6a1d2bc126ae5b201fa79bdb07fc23f",
    },
    "save_patterns": {
        "components.csv": "75895de6ff09efcce22c42120f561773d95e410ec81d88c6d6c3869e3b2d5dc2",
        "pattern_0000.json": "b011a037d393cfa0ce7f90174c288d99129703c80f56d610fb44f4671d4061e6",
        "pattern_0001.json": "d66b90226a086f2025ac351c40d714a9d6150222f417a64d15115f239a38a0ab",
        "stats.csv": "ca51220617c758903cc713eb92a3f7eb98e3d7bd55475b0dd9124444463e9714",
        "stats.json": "61cd5026a21ee6bcc20697df218e76a1f3c08c8aabca1ef299497795f19f6a4e",
        "verify.csv": "26fa4be49406be7707e1b9cefb967e3a03b56625a49b6e322d95d334477f3761",
        "verify.json": "871f4c1db1ff85ca4d61d36a03784dd7b6281feb624448ef776ce9a790bc3d02",
    },
    "grid_next_row": {
        "components.csv": "ccf29035d2ad3d4df067abe45c7eeef371d14bdc1ec79242ae83a963ea9440eb",
        "f_perp.json": "37a3d3bc7acd53703db943efa47e97200483d617fa29f9180d0b72855719f20f",
        "foliation.json": "c6811a44d96315a1667e8cf580308b4ccabfb71113b3048adc14ecbb979f21bb",
        "h_dense.json": "8633992ac4d34d030961901495b057ca7182fefb7d760cb6d66fa20e4108cb2b",
        "shiftmap.json": "ef1ac1600687015597a6cb89deb29595de9aca0c2cb5ba708ebbc4a21eaf4484",
    },
    "cluster_multitype_strip": {
        "components.csv": "80e621ad48c10675e6ba0f5cbf97744b1493c361c29b00b24eb74c4b7de382c2",
        "pattern_0000.json": "eff9c7e174125cb198515167f41edb4c5662dd7aafd68a869e07e14c4f4d099c",
        "pattern_0001.json": "37a85d47f4d17b6368b1a4550bba2a9464987d2167713498d8bc6642c3b0c2a1",
        "stats.csv": "8aa47bf1a58064851335fd871e4a14b169d4560b935c0d812f7b1422c33a6563",
        "stats.json": "b624845a9dee7af6559d88c345dbfde9372e8fcf3fc0e8d35d3c3fc7c5de8831",
        "verify.csv": "398a0bf32d02cb0fa8afaff399f2778a147271c1a19d16a888eaee8db5ac6bbd",
        "verify.json": "5dc0b47148419c678a219688643af565cfafbd35fe4f432ac0db1d1bdc5486d0",
    },
    "grid_next_row_torus": {
        "components.csv": "bb271e9a8be5f4c29c3dd71f63a4567760eb54a6d731a937ec1087fa1b8b991e",
        "stats.csv": "502d4d99b1f6c2c57fa86026c87fa44534b7b27bad487f7a2b753d3d9b76a04a",
        "stats.json": "10dd7f9cd94701e6455810436df8634ebb4e510d4ac6e71789020cda3e062a56",
        "verify.csv": "6709abb312a7edde06542bf57cd214733503fcf31f34f86f01fcee128686ef35",
        "verify.json": "9b4e42aa3eda6423632a58528653dcc0f1b390f042e17885a68937e2bfb230e0",
    },
    "grid_next_row_window": {
        "components.csv": "4aa40b5a92174db0d5197ccd4f1d61026b30b5d090f51eb670a96f67b043bbf4",
        "ladder.csv": "0ab39f346fbc5dec11af4f07cee06c4a057cb38eb61b619822ff6ad828a892ad",
        "stats.csv": "1e36032a0b6ee38dbaa876036425f763d3a4c18fe0a39aba04cdf3abf4fb759b",
        "stats.json": "1b3fe47cea1207158c62f18edefe5cd1e3833f080832fd0af1587f5587554eb4",
        "verify.csv": "fcd6beb77fa1f4216c0c97d533a96bef7100df96d4b7a79730dcb42e26580b9d",
        "verify.json": "753ee30629d1fb030761392183ab809262601534f333bdc319292652adcf0f5e",
    },
    # verify --pattern on cluster_multitype_strip's pattern_0000.json
    "cluster_pattern_verify": {
        "verify.csv": "aee84b87be4a23722d0e1f908be7eccff899cf423aabfd9e56168b36cfd1c52c",
        "verify.json": "5423262daab3de3b69763c5f3f6498036a5140f91b7f30835a61effd6176c3f7",
    },
    # a censored window: foliation.json, f_perp.json and h_dense.json with dead ends
    "strip_window_foliate": {
        "components.csv": "d520684ab24e0693ee935a8689475ff203d9e26cfd99a4c3331c2214379fade2",
        "f_perp.json": "4f86d267c6728019ad18018bc86810903aa93704db850ea728d33e0b60a898ee",
        "foliation.json": "63c77d2e21ed9240f63217796ea488c9482f843ba20f702f09187bb462974c27",
        "h_dense.json": "b05a91a2d7ca6f140fde2963b9c4fa9432187923513725cd661a8cbdf975652d",
        "shiftmap.json": "e644e58594812c65592680555086546eee6e78b73c6213d63303458d3966aa31",
    },
}


def digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_run_result_digests(tmp_path, name):
    assert main(COMMANDS[name] + ["--out", str(tmp_path)]) == EXIT_OK
    assert digests(tmp_path) == DIGESTS[name]


def foliate_digests(tmp_path, generate, shift):
    """Digests of ``foliate --shift shift`` on the pattern file written by
    the ``generate`` command with the flags ``generate``."""
    pattern = tmp_path / "pattern.json"
    out = tmp_path / "out"
    assert main(["generate", *generate, "--out", str(pattern)]) == EXIT_OK
    assert main(
        ["foliate", "--pattern", str(pattern), "--shift", shift, "--out", str(out)]
    ) == EXIT_OK
    return digests(out)


def test_grid_foliate_next_row_digests(tmp_path):
    grid = ["--model", "bernoulli_grid", "--p", "0.5", "--torus", "10x20", "--seed", "14"]
    assert foliate_digests(tmp_path, grid, "next_row") == DIGESTS["grid_next_row"]


def test_window_foliate_strip_digests(tmp_path):
    window = [
        "--model", "poisson", "--intensity", "1", "--window", "40x40", "--buffer", "2",
        "--seed", "19",
    ]
    assert foliate_digests(tmp_path, window, "strip") == DIGESTS["strip_window_foliate"]


def test_verify_cluster_pattern_digests(tmp_path):
    runs = tmp_path / "run"
    out = tmp_path / "out"
    assert main(COMMANDS["cluster_multitype_strip"] + ["--out", str(runs)]) == EXIT_OK
    assert main([
        "verify", "--pattern", str(runs / "pattern_0000.json"),
        "--shift", "multitype_strip", "--out", str(out),
    ]) == EXIT_OK
    assert digests(out) == DIGESTS["cluster_pattern_verify"]
