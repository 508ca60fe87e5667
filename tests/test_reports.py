"""The default reports, byte for byte.

Each case runs ``helmat`` in process on fixed literal input files (named by
relative paths, so the reports do not depend on where the files live) and
compares the SHA-256 of its stdout and stderr with a pinned digest.  A
refactor or a performance change keeps every digest; a change that alters a
report on purpose updates the digest here and lists the changed report in
CHANGES.md.
"""

import hashlib
import json

import pytest

from helmat.cli import run

REAL = {
    "a": [[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]],
    "b": [[2.0, -0.5, 0.3], [-0.5, 1.5, 0.1], [0.3, 0.1, 1.0]],
    "c": [[1.0, 0.2, 0.0], [0.2, 2.5, -0.6], [0.0, -0.6, 3.0]],
}
COMPLEX = {
    "u": ([[3.0, 0.5, 0.2], [0.5, 2.5, -0.3], [0.2, -0.3, 2.0]],
          [[0.0, 0.4, -0.1], [-0.4, 0.0, 0.2], [0.1, -0.2, 0.0]]),
    "v": ([[2.0, -0.3, 0.1], [-0.3, 1.5, 0.4], [0.1, 0.4, 1.2]],
          [[0.0, -0.2, 0.3], [0.2, 0.0, 0.1], [-0.3, -0.1, 0.0]]),
    "w": ([[1.5, 0.2, -0.4], [0.2, 2.2, 0.3], [-0.4, 0.3, 2.8]],
          [[0.0, 0.1, 0.2], [-0.1, 0.0, -0.3], [-0.2, 0.3, 0.0]]),
}
PROBABILITIES = {"p": [0.1, 0.2, 0.3, 0.4], "q": [0.25, 0.25, 0.25, 0.25]}
WEIGHTS = [1.0, 2.0, 3.0]

#: argv -> (exit code, sha256 of stdout, sha256 of stderr).
DIGESTS = {
    ("dist", "d1", "a.json", "b.json"):
        (0, "35f386df2c8ea7760aa35eb0960214fd9c9a8eaac177ea534fab75e51f2ff0f3",
         "e317cf5bf6e8503e6aa3f4a2e3284e5034e3d672738b73167035a9de4370da96"),
    ("dist", "d1", "u.json", "v.json"):
        (0, "4c91ce5dd6123a7e86d599545833f48a2cf3e2dc6ddc4049dd2ba73eac18e1d9",
         "a9f1cb8fcdf9f2efea7c24c77e8d07c0742813fcf100f463ec087bc5185da657"),
    ("dist", "d2", "a.json", "b.json"):
        (0, "3ab3dc97ea9079b3e5166eb75ea99c6db1e5bcd76c6f59547a3962521ef74b45",
         "67c42efa74c6e30fc4aa7789990b36be32a3b37ea738a15aaa43795c49c3623f"),
    ("dist", "d2", "u.json", "v.json"):
        (0, "e29fcd8d1788f3209631bc97be8a95c506e2f8ec7542411625397ba902d77f14",
         "bef17c2a8046844f4b435e092780b2da97f34e585cc7732b0910ea6ad9ba7e75"),
    ("dist", "d3", "a.json", "b.json"):
        (0, "259370bfcfe4bc9e813d309d174d59d4605c20dae8e03ff10b846bf16e871982",
         "4b5c14c1ed48317df21c1ecbc63591128eaed58b077ea1f7fd92131c81f1daa2"),
    ("dist", "d3", "u.json", "v.json"):
        (0, "82609cfb3d5c58a1fa9aeccb10f8b3a0529bc7a7051081c94a0841dffa1989f0",
         "ef98422f6f7fcd34aa438541d8bfdcaaf95bada632cd75703099e6cc5f49d3cf"),
    ("dist", "d4", "a.json", "b.json"):
        (0, "b99dc9df0950b3a48f4a3462db1790ffcc8bb91870c3a4b744628c0e446a2e9d",
         "14c191ba0b68e0c8d8ad3683f86c8b52123e12be77d051ee5c03e6f617a7f86b"),
    ("dist", "d4", "u.json", "v.json"):
        (0, "1b0c091e807acd273b1c03b5adc631251a3112ae905b880a698d0162afd70380",
         "87dbd92e1a3e24af9b7bbe25cd519277ef70870a9d0b7d045c919e0f1e1c4ae5"),
    ("dist", "d2", "a.json", "b.json", "--via-unitary"):
        (0, "6eaca6c6eed4ff38254167620fbd149dc45f6820fae83991b9531d6abd6b3962",
         "67c42efa74c6e30fc4aa7789990b36be32a3b37ea738a15aaa43795c49c3623f"),
    ("dist", "d2", "u.json", "v.json", "--via-unitary"):
        (0, "e4c580183368cbf9e3d83ccc25d2da66a7d903f1963ed8a87883ee204280a193",
         "bef17c2a8046844f4b435e092780b2da97f34e585cc7732b0910ea6ad9ba7e75"),
    ("dist", "hellinger", "p.json", "q.json"):
        (0, "7883eaabbebdce434e6aa7fd0989e104795c62f9d9c37bf86eb5d86d76d5cc97",
         "4d08354333cdc68de5747933149fbfd63df1be21b69a5ecd6344d985a81e1e29"),
    ("mean", "arith", "a.json", "b.json", "c.json", "--weights", "weights.json"):
        (0, "7290ff541f567a6a2416aca4c410efd503897805d37448e19491f9d0416d8407",
         "9c05889e5fe6c1ec672c39f84bcaeda2a2b7a44a13545fccba19db0b61bcb72a"),
    ("mean", "arith", "u.json", "v.json", "w.json"):
        (0, "70640318e76515a848ab52da7d9cbae67e42757e2435f21283ff148b33fd6afe",
         "9c05889e5fe6c1ec672c39f84bcaeda2a2b7a44a13545fccba19db0b61bcb72a"),
    ("mean", "logeuclid", "a.json", "b.json", "c.json", "--weights", "weights.json"):
        (0, "552caee6e6bdd78da966a1fe760e8a6b8a7a552a70dd35cf714b44e34ed31291",
         "af83919f964b7f5aa06f368f5e2e429c3cd6cf18bd81668151d8248c86c87790"),
    ("mean", "logeuclid", "u.json", "v.json", "w.json"):
        (0, "59bf529b5ac1aa4b4c38bab56067473dfa52794721f9bf17120baf6b621bc719",
         "af83919f964b7f5aa06f368f5e2e429c3cd6cf18bd81668151d8248c86c87790"),
    ("mean", "qhalf", "a.json", "b.json", "c.json", "--weights", "weights.json"):
        (0, "cac22dc33819360feb25653466b78234b44a86cca10e813865cd6c2b72fe4934",
         "c7d115515d4d4fcde83e9769f6b8200d3e32c9cbb3f13c75bb024d9d3d0fe27c"),
    ("mean", "qhalf", "u.json", "v.json", "w.json"):
        (0, "ca544d06d491b02d0427fd46c837fe2b07ccc37bf6396f8133334e8f14cf3b49",
         "c7d115515d4d4fcde83e9769f6b8200d3e32c9cbb3f13c75bb024d9d3d0fe27c"),
    ("mean", "geo", "a.json", "b.json"):
        (0, "e4ffc1c3617107a5218d958b230cf1205274f9d2b3da462f98439c1d5157ac01",
         "e6ae2745cb4c14f0953aa26e20a85c1c2ce3fd9895020113bee20d39d9460349"),
    ("mean", "geo", "u.json", "v.json"):
        (0, "c22cb671b623a49e848608a3893a85da2e8470c74cdf3bd2c8dc68d9c823a1a6",
         "e6ae2745cb4c14f0953aa26e20a85c1c2ce3fd9895020113bee20d39d9460349"),
    ("mean", "geo-t", "a.json", "b.json", "--t", "0.3"):
        (0, "c6fef8aacad73542a4882804a564e64bfe5192b17b4624def80f8a5d078ef9a7",
         "d385d9e5ce662d93c2512ec802fb158d086165124674e81ad0a3de479ffb7392"),
    ("mean", "geo-t", "u.json", "v.json", "--t", "0.3"):
        (0, "cdcd9645d9724c4d8f6d61a6b7ead8da9d7299944cd6162117f303fa774cebcc",
         "d385d9e5ce662d93c2512ec802fb158d086165124674e81ad0a3de479ffb7392"),
    ("bary", "wasserstein", "a.json", "b.json", "c.json", "--weights", "weights.json"):
        (0, "ab38fac8cfa87512ce1d9fc01181b1bc675c1f77cd01081f741a73aadd1cd923",
         "f178630a3f36c7c035ba3f16a778148dceee8b60f1252a2c8022742566be4111"),
    ("bary", "wasserstein", "u.json", "v.json", "w.json"):
        (0, "7d57e1798da08db7fd2c94ee1ee105b8c04df74c14274915c9b45d57b7b153f1",
         "8a6a9d83c7ed517f4b9d3b3b43461b411f26e3dce0ae6c2f22ad605f1b12eed6"),
    ("bary", "power-t", "a.json", "b.json", "c.json", "--weights", "weights.json"):
        (0, "c1093e1498b4bf23ee5a68e4a77381706a3ed673843b563d745650c2eabc39bb",
         "53922ca5a0171de26f4da54f927a72e083ae48dcb2f1bf8ea65506e0f705b6cb"),
    ("bary", "power-t", "u.json", "v.json", "w.json"):
        (0, "9120de6dc2b6b9c8d4523a62083496f7d7e509f7852d20f8b6692e1a33556818",
         "cce9f6ccf51e87be0142f559115f83fc52d758fcca78663856e27432a4cf4087"),
    ("bary", "logeuclid-type", "a.json", "b.json", "c.json", "--weights", "weights.json"):
        (0, "f65978f407e3294d1a2731499237ed99c1d011c36fea2f5cff0e118b1ce67ec4",
         "9186098f8f6ab1ee374e4fc73c4c8ff4302177622b068375b19833b8f7714621"),
    ("bary", "logeuclid-type", "u.json", "v.json", "w.json"):
        (0, "723b3f0118c3a64ebb5cedc71b0b8b45960cedcff9931a676c78b295aef64b57",
         "f009b65646764bc5184cf2d56a5fcf06a664c83900a61e93dea56438ad531b9c"),
    ("bary", "power-t", "a.json", "b.json", "c.json", "--t", "0.25"):
        (0, "965b96f05a52f19fc56abf4bdc17a0342d6d2afa45d0f35a19e0c10841643fd1",
         "045c964dcadb24e655fb044238ea93a2e2433810bcf5d7d33d89fb1022b36114"),
    ("verify", "all", "--seed", "42", "--samples", "1000"):
        (0, "a5c8071b956b8f2754248823a3e8ca76147ce5cf34e457c3b904fff690b612aa",
         "97ed24b821b9143d32bd50da5cb936eed79fd380541a0dee6f0752d149624986"),
    ("verify", "all", "--seed", "7", "--samples", "1000"):
        (0, "0702c78fad80d855d6b81dbbac0757b0984642ff6f524dc7f1ade821d530d4b7",
         "fede73b6066807cfa7e7607fb9689ec6ebe36cb852c5e738559f89720add1fb7"),
    ("verify", "all", "--seed", "310", "--samples", "1000"):
        (0, "aa2ae58ce812db177ac9ff10d20698de2a610dd4cdd29d4951da2e910a8e2926",
         "b249b0de24564f5a9dec7c28d190ffdf9d0410c692e186ea259c9ba274b40afb"),
    ("verify", "all", "--seed", "5", "--samples", "100"):
        (0, "0b35822476494b4150e31fe38f5d980bd4687cd34fcb227e3fb7d7371765ed88",
         "1c1250103722073a1bce156ac211ee8c536b6077a2e53bb640c019dfdfb27883"),
    ("verify", "all", "--seed", "99", "--samples", "1"):
        (0, "63d0f52f9db12f400d8a97dc314a6876c0e902d0493df31fba2bc53b6ef208f7",
         "be733414d9678d9bfd155714b0be988e8d8c8b65950b8b93c854fa5ca76d7d3c"),
    ("verify", "legendre-cex", "--seed", "123", "--samples", "37"):
        (0, "90b0d4351df167ec5728ef30de9ea934b7c60670d100e1426e17b15489ef68a0",
         "11e6358325e7cb68311115761f569fac029e2acbe93087c0bf36bde7bc992b3a"),
}


@pytest.fixture()
def report_dir(tmp_path, monkeypatch):
    for name, real in REAL.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"dim": 3, "real": real}))
    for name, (real, imag) in COMPLEX.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"dim": 3, "real": real, "imag": imag}))
    for name, p in PROBABILITIES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(p))
    (tmp_path / "weights.json").write_text(json.dumps(WEIGHTS))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def report_digests(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code and the SHA-256 of the stdout and stderr of ``helmat argv``."""
    code = run(argv)
    captured = capsys.readouterr()
    return (code, hashlib.sha256(captured.out.encode()).hexdigest(),
            hashlib.sha256(captured.err.encode()).hexdigest())


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_report_is_byte_identical(report_dir, capsys, argv):
    assert report_digests(capsys, list(argv)) == DIGESTS[argv]
