"""Every bit of both branches' couplings, down to subnormal g0.

No golden digest reaches a subnormal g0, where a product's rounding depends
on the order of its factors: `0.5 * g0 * x` and `g0 * x * 0.5` differ once
`0.5 * g0` drops a bit. Each case digests the `float.hex` of every field of
`tms_couplings` and `bs_couplings` at one reference set with g0 replaced.
"""
import hashlib
from dataclasses import fields

import pytest

from sqom import stage1_transform, validate
from sqom.second_stage import bs_couplings, tms_couplings

from conftest import batch, boundary_set, laser_set, strong_drive_set

SETS = {"laser": laser_set, "strong": strong_drive_set, "boundary": boundary_set}

# (set, g0) -> SHA-256 of the fields' lines
DIGESTS = {
    ("laser", 5e-324): "becdc7d3b562ccbea1916300a08f61bef737d82723440e6ab2ce2b911d52944f",
    ("laser", 2.2250738585e-313):
        "3342860b6235ad7adbcf03e6ecc53339b32864eb8be7f3061f97b7b6875c40de",
    ("laser", 1e-300): "14c96502f9318ae4861a5156e4bf5779a0e91e660c3f213d32138c46280ff0ca",
    ("laser", 0.002): "b367dd55788a24e5706fe049765dd1acc49af3e35a1db12c18ae7778e6123c4a",
    ("strong", 5e-324): "d27bb7048e5a89a23618aa6ce6b18e5bd2e4f20835edaf10831f2b97b7139ca9",
    ("strong", 2.2250738585e-313):
        "123af963419e34e4c356141183c2f8d3e67802293735517095267eab6acb6f7e",
    ("strong", 1e-300): "6f77bcf74f4564405ef1a281a3e556f89918fd8cab31df40fffb42d9adb779c6",
    ("strong", 0.002): "66576ce7cfb3c64a47c61e45dadd8518ddbdc64d0422f76831162321c334a91f",
    ("boundary", 5e-324): "e2b34e0cb0ad28ab3d3eb195d16128e30575d5e76a833483315f5ceef3768c1f",
    ("boundary", 2.2250738585e-313):
        "fac34a02143c750d40366e6f84a0bbf0cfd29442201cad269094f5de945f7729",
    ("boundary", 1e-300): "7390ef63f55ae1375ab869eaca038adbdb7057a79d3ac4abd3b059bf7f517281",
    ("boundary", 0.002): "1392364bdf5634548b9bdbaa32b89c663ad68e50c2c1d8ade721e811977c6a4b",
}

# each type's fields in the order the digests were taken
_SHARED = ("phi", "j_prime", "w1", "w2", "g1", "g2", "g11", "g22", "g12", "gp12")
FIELD_ORDER = {
    "tms": ("r", *_SHARED, "f_prime", "c_prime", "eta"),
    "bs": ("theta", *_SHARED),
}


def _hex(value) -> str:
    (x,) = value.tolist()
    return f"{x.real.hex()},{x.imag.hex()}" if isinstance(x, complex) else float(x).hex()


@pytest.mark.parametrize("name, g0", sorted(DIGESTS))
def test_couplings_bits_are_pinned(name, g0):
    vp = validate(batch(SETS[name]().replace(g0=g0)))
    s = stage1_transform(vp)
    branches = (("tms", tms_couplings(s, vp)), ("bs", bs_couplings(s, vp)))
    for label, c in branches:  # every field is digested, once
        assert sorted(FIELD_ORDER[label]) == sorted(f.name for f in fields(c))
    lines = [
        f"{label}.{name}={_hex(getattr(c, name))}"
        for label, c in branches
        for name in FIELD_ORDER[label]
    ]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name, g0], text
