"""The --json reports of the usual commands, byte for byte.

Each digest is the sha256 of one command's standard output, run in-process
through ``cli.run``.  They were recorded before exact matrices kept their
packed kernel form, so a change of kernel that alters any report byte (an
entry, a witness string, a ledger line, the order of suite entries) fails
here.  The float entries are written with 12 significant digits; the one
float witness is a full ``repr``.
"""

import contextlib
import hashlib
import io
from importlib import resources

import pytest

from zxexact.cli import run
from zxexact.diagram import PiRational, dump_diagram
from zxexact.rules import instantiate


def _data(name: str) -> str:
    return str(resources.files("zxexact.data").joinpath(name))


GOLDEN = [
    (["interpret", "e_lhs.zx"], 0,
     "e4195d77a09d03e23bfda6b66b7d608c7b4356bc66175620287c2a172e8b2a69"),
    (["interpret", "e_lhs.zx", "--backend", "float"], 0,
     "7cef7db75a10e4c515a82b2d42c6e87e86722a14779e79245301fc5d176c6ef5"),
    (["interpret", "circle.zx"], 0,
     "1758cf217ceeb471da897ec453c5a4a14c6f9f574cba64212479e56fbbc6aab0"),
    (["interpret", "circle.zx", "--backend", "float"], 0,
     "b6150211d997cf61388a9c5465f0807b3627ac849214d9600698545be5b68f1d"),
    (["derive", "check", "iv_from_zxe.json", "--paranoid"], 0,
     "847697889c34da9a109026fe54e9b7dfa9af9a8bea248d988a21eecf36267869"),
    (["derive", "check", "sup4_from_sup2.json", "--paranoid"], 0,
     "ebdce856425fe1670cb4896526e4ea11e12a460ceb0f96ca691d99393e35c716"),
    (["derive", "check", "zo_from_zxe.json", "--paranoid"], 0,
     "9e77d5b5b8f43d5ae62414b68e88ef369aa8a8fb2d7148b693723c1055e2355e"),
    (["witness", "supnec", "--p", "3"], 0,
     "4bff6823df68f7b4fb73983dc20ef956e944a3088272f53270776cb85db3821e"),
    (["witness", "sqrt2"], 0,
     "72d149277492704572130b8b7cb0a433ea8383d48d75a9e70ba1a6a1d3ace3f6"),
    (["witness", "thm2"], 0,
     "ad50f02854bc6f2d511c443a7892997e66a1fcd10bdad4af8add159c79f5ba3b"),
    (["suite", "soundness", "--ruleset", "ZX_cyclo", "--random", "3"], 0,
     "c958878c84ae1f323fa7d2c0b70617e6fab50f213f11ce2fd307b570539f664c"),
    # a sound rule fails at a tolerance below float rounding: pins a witness
    (["rule", "check", "SUPn", "--bind", "n=3", "--bind", "alpha=float:0.3",
      "--tol", "1e-300"], 1,
     "1be177a5c639b627a9ab511c731e58e9ed0cf873989995bc2ff9481585d20842"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_json_report_bytes(argv, code, digest):
    argv = [_data(a) if a.endswith((".zx", ".json")) else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv + ["--json"]) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# SUP_13's left side at alpha = pi/12 interprets at M = 312, where every
# phase of its one-legged Z spiders is a monomial of a 156-field value;
# colour-swapped, the same phases sit on X spiders and the 14-leg spider
# is a chain of phase-0 Z pieces.  Recorded while every Z spider still
# went through the generic product loop, so a Z step that alters any
# report byte, exact or float, fails here.
WIDE = [
    (False, "exact", "ccd8cf14506497e36d58a1af0bb364f3ade592d77782f89aa77f69cc8dfe74a1"),
    (False, "float", "68aa4d77d831fd4c74a1d6b6bffeef0a3204ddf2d4c344b54d03d4e294f934f5"),
    (True, "exact", "f9f5c707e1278b413c2fd98a30d6f0c3ec95a4e372d0de21223be384ed3515aa"),
    (True, "float", "e3234a3719556bc0bdd41205b5a8b5c105b3983424651f8e367b588bbac10ffc"),
]


@pytest.mark.parametrize("swap, backend, digest", WIDE,
                         ids=[f"{'swapped' if s else 'plain'}-{b}" for s, b, _ in WIDE])
def test_wide_modulus_report_bytes(tmp_path, swap, backend, digest):
    lhs = instantiate("SUPn", {"n": 13, "alpha": PiRational(1, 12)}, color_swap=swap).lhs
    path = tmp_path / "sup13_lhs.zx"
    dump_diagram(lhs, str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["interpret", str(path), "--backend", backend, "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
