"""Byte-level regression gate: SHA-256 of the ``check --report --curves``
artifacts of every shipped problem, and of ``verify``'s report and curves on
a corpus of generated problems.

The shipped digests equal the ones the benchmark keeps for the same problems,
except ``not_differentiable``: the benchmark's copy still holds the digests of
the finite-difference Gamma that the dense fallback used before.  A changed
digest is a change in output: find out why before touching a value.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from bfpde.cli import run
from bfpde.engine import DomainBox, GridSpec, ProblemSpec, verify
from bfpde.expr import parse
from bfpde.fuzzy import FuzzyVector, TriangularFuzzyNumber
from bfpde.io import report_to_dict

from randexpr import random_monotone_instance

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

GOLDEN = {
    "boundary_example": (
        0,
        "6702bc4747682b7d8730e81a45ad057e8efaefbd15f8e0d2a57d7f202e4e56d9",
        "e82d89b8a6b65b1c24d706973ebb67cb36fc5f8d5214be783c1686685aa9e1ed",
    ),
    "crisp_example": (
        0,
        "8670d7eaa04616f2689ef12f961009ac677f773a245ecc88cb531915ae7f9bf7",
        "1a054d18a5fae20a5d86d0f7e36c52afdb230fb255ddc93c5bf5186d3e765f0c",
    ),
    "not_differentiable": (
        1,
        "ba9051c1ad9a1de060a5349daf9ed15b3bdfd30e84ef15eb6a47afe6cac91797",
        "c01440c62f200818ad3045c5988df9cc2a7557cf1afc7ffd858715ed2f2083b0",
    ),
    "worked_example": (
        0,
        "acfdcf1ad81e5b5b0f6972d1dd23c2c25c0ee8fff4ae7c8e09465a86a0bc0832",
        "da511a630983f21911c147be65ed158e496351184de4a3ead8a144f4c4878652",
    ),
    "wrong_F": (
        1,
        "a87e34b4a1f1173349d6cf5d7f51dd4225b3ce4da03c2aca6ee787064fb87906",
        "f246a6a47669e7f7a181104b99e6de26e1ced95e1ff7e7abe94cd657bba028bd",
    ),
}


def test_every_shipped_problem_is_pinned():
    assert sorted(p.stem for p in PROBLEMS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_and_curves_digests(name, tmp_path, capsys):
    exit_code, report_sha, curves_sha = GOLDEN[name]
    report = tmp_path / "report.json"
    curves = tmp_path / "curves.csv"
    code = run(["check", str(PROBLEMS / f"{name}.json"), "--report", str(report), "--curves", str(curves)])
    capsys.readouterr()
    assert code == exit_code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256(curves.read_bytes()).hexdigest() == curves_sha


# --- generated corpus ----------------------------------------------------------

WORKED_BOX = DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True)
BENCH_BOX = DomainBox(0.5, 1.5, 0.0, 2.0, x2_min_open=True)  # the benchmark's generated problems' domain


def _problem(name, g_text, f_text, params: dict, box, grid) -> ProblemSpec:
    vector = FuzzyVector(tuple((n, TriangularFuzzyNumber(*t)) for n, t in params.items()))
    return ProblemSpec(name, g_text, f_text, parse(g_text, vector.names), parse(f_text, vector.names), vector, box,
                       grid)


def _corpus() -> dict[str, ProblemSpec]:
    """Problems covering the corner route at k = 1..4, the dense fallback with
    and without certified parameters, crisp parameters beside fuzzy ones, and
    ties among distinct corners."""
    grid = GridSpec(17, 13, 6)
    corpus = {}
    for k in (2, 3, 4):
        # the benchmark's many-params family: every sample on the corner route
        names = [f"b{j}" for j in range(k)]
        s = " + ".join(names)
        params = {n: (0.1 + 0.01 * j, 0.15 + 0.01 * j, 0.2 + 0.01 * j) for j, n in enumerate(names)}
        corpus[f"many-params-k{k}"] = _problem(f"many-params-k{k}", f"x2*exp(x1*({s}))", f"x2*({s})", params,
                                               BENCH_BOX, grid)
    for seed in (1, 2, 3):
        # the benchmark's non-monotone family: a symmetric b sends every
        # sample below alpha = 1 to the dense fallback
        rng = random.Random(f"non-monotone/{seed}")
        m, w, c = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4), rng.uniform(0.15, 0.3)
        q = f"(b - {m!r})^2 + c"
        params = {"b": (m - w, m, m + w), "c": (c * rng.uniform(0.5, 0.8), c, c * rng.uniform(1.2, 1.5))}
        corpus[f"non-monotone-seed{seed}"] = _problem(f"non-monotone-seed{seed}", f"x2*exp(x1*({q}))", f"x2*({q})",
                                                      params, BENCH_BOX, grid)
    # the fallback with certified parameters pinned: c increasing and d
    # decreasing beside the uncertified b (k = 3); and a d whose partial has
    # one sign at the centre and the corners of the alpha = 0 cut but not in
    # between, which must stay a lattice axis
    q = "(b - 1)^2 + c - 0.5*d"
    corpus["decreasing-certified-k3"] = _problem(
        "decreasing-certified-k3", f"x2*exp(x1*({q}))", f"x2*({q})",
        {"b": (0.7, 1, 1.3), "c": (0.2, 0.3, 0.4), "d": (0.1, 0.2, 0.3)}, BENCH_BOX, GridSpec(9, 7, 4))
    q = "(b - 1)^2 + 0.2 + 0.05*sin(6.283185307179586*(d - 1))"
    corpus["cos-guard"] = _problem("cos-guard", f"x2*exp(x1*({q}))", f"x2*({q})", {"b": (0.7, 1, 1.3), "d": (0, 1, 2)},
                                   BENCH_BOX, grid)
    worked = ("x1^beta * x2 + gamma", "beta * x2 / x1")
    corpus["crisp-beta"] = _problem("crisp-beta", *worked, {"beta": (0.5, 0.5, 0.5), "gamma": (0, 1, 2)},
                                    WORKED_BOX, grid)
    corpus["crisp-gamma"] = _problem("crisp-gamma", *worked, {"beta": (0.25, 0.5, 0.75), "gamma": (1, 1, 1)},
                                     WORKED_BOX, grid)
    corpus["crisp-gamma-fallback"] = _problem(
        "crisp-gamma-fallback", "beta * x1 + x2 / beta + gamma", "x2 / x1",
        {"beta": (0.5, 1, 2), "gamma": (1, 1, 1)}, DomainBox(1.0, 1.5, 1.6, 2.0), GridSpec(13, 13, 6))
    corpus["crisp-gamma-upper-edge-tie"] = _problem(
        "crisp-gamma-upper-edge-tie", "ln(6 - x1)*beta*x2 + x2 + gamma", "beta * x2 / x1",
        {"beta": (0.25, 0.5, 0.75), "gamma": (1, 1, 1)}, WORKED_BOX, GridSpec(9, 7, 4))
    rng = np.random.default_rng(7)
    for i in range(10):
        g_text, params, box = random_monotone_instance(rng)
        f_text = f"({' + '.join(params.names)}) * x2 / x1"
        corpus[f"random-monotone-{i}"] = ProblemSpec(f"random-monotone-{i}", g_text, f_text,
                                                     parse(g_text, params.names), parse(f_text, params.names),
                                                     params, box, GridSpec(9, 7, 4))
    return corpus


def _digests(problem: ProblemSpec) -> tuple[str, str]:
    """SHA-256 of verify's report as written, and of its Y, F and Gamma
    lower, upper and approximate arrays (or of the error that stopped them)."""
    verdict = verify(problem)
    report = json.dumps(report_to_dict(verdict), indent=2, allow_nan=False) + "\n"
    curves = hashlib.sha256()
    if verdict.curves is None:
        curves.update(repr(verdict.curves_error).encode())
    for curve in verdict.curves or ():
        for name in ("lower", "upper", "approximate"):
            curves.update(np.ascontiguousarray(getattr(curve, name)).tobytes())
    return hashlib.sha256(report.encode()).hexdigest(), curves.hexdigest()


CORPUS_GOLDEN = {
    "cos-guard": (
        "a42e1ee6ce1aec0f26615f863d5943b4d6e4b7f3c234b67fc46116888cb273a0",
        "32702aefbe24582c1e4655fe0b9adae8a2ecc3711adb8deda2b5d231622a82d5",
    ),
    "crisp-beta": (
        "c1b4480390caf3169ab801aa0b7b12f236bb12c80553e637c575cf3763f8231b",
        "88d75a41f0088fc7c9948d35543ef60135edbc52d9ef3eb91f20375e4c7be681",
    ),
    "crisp-gamma": (
        "7659ee7b6bc082c6260f6560afcb0138386faacf62f7a3390667018866a24d99",
        "2be8bd5ca3fa2c4213b818ace4859a2fb1e7061e953ec489b6c1dd553426a29f",
    ),
    "crisp-gamma-fallback": (
        "54d1765130e3ee79954394ad3d870b606dfc3973f3538da2cbc980ddde2b6b9f",
        "90f007285100df29b5e4eed97ba9518c2a5857d420618e99d1c3fdd471f1ed48",
    ),
    "crisp-gamma-upper-edge-tie": (
        "b5b1efba82ffad73926f02cadcb821b756366c950446fdfbf3300853dc63c21e",
        "5a6aa13be10c5a9217749d1d4a6ce50b59fb0dcb18db0b396a74569dd51d0c6d",
    ),
    "decreasing-certified-k3": (
        "dbb82339efe1e46f0cbe8aac92b557487bb488f63c80ea803cf17b12be8906c8",
        "ed40ebba8f30c1f2b52bf5476b77ee08243cef83ab42066a6b94b17299870adf",
    ),
    "many-params-k2": (
        "47a079d902e1128cf7b79c805d8648bf17000b02d4953254e8b68fbb9aa61501",
        "64e140c80db3f53858b593cd3f9cabe3116ed98c7508f5ffdb735fa096220868",
    ),
    "many-params-k3": (
        "1cd1b7c50d40f01b2ed00aec3d07010d9f52accbd13ebc122b4b991987a55008",
        "73c0f65b22bf13a0374070d39666330cd96c4bd8b20597fe2065eb485240e6a7",
    ),
    "many-params-k4": (
        "ef4ef6087a44aef967085c30742b3ff3705f0a7c10d7a0f108756a71062f88b1",
        "47b668bc9bb72b511a15dd1874fae856626398acebc2515f0587fc160c944da4",
    ),
    "non-monotone-seed1": (
        "a1d074981850d04a341ddce3a3938a691178fe4da7a6b07c74bd45b172f1fae1",
        "9d7c48cf3a4292d26eca3cee4f3c61aa2234c35a9dc363d63576d74b7e8fdb15",
    ),
    "non-monotone-seed2": (
        "c3764a34a3781f65d428a0d56a1537bf65fb13ad9939d5411a47abefc297563c",
        "349366f096a31d60b4b8a936e12aa86bbd56f6513323461fa1d8605cda3c556c",
    ),
    "non-monotone-seed3": (
        "a3946d885a3136d715bcf0a86a75ba7873a057f40e947462c2eeb1155be06772",
        "fb6012fcfaa8f054d9f2251187374fdfd49e55d247c8f2610d13cf899c4ca972",
    ),
    "random-monotone-0": (
        "55679f3b83a382ae29265582e8c706dcc63a4e2f8270249262c0bca6fdc7e747",
        "03d0015e9675e5720e38655f79eed33c1bce12452537de326394538f233589b4",
    ),
    "random-monotone-1": (
        "c750456d415c2e444dbe3fd8d3803f49a089dae197ec900a3e45cd3c4fcfcc08",
        "74dde4efeb6c13a442c0503066f9743bc61d625397441e46d3c2098094c85e2e",
    ),
    "random-monotone-2": (
        "cd269d9f5127a576ce61616749e4786e2755c847f19d88c9cbaf64e7cfd56f30",
        "178a70fb96477d4dd1561992246ff2a195a1718b420986a1a32cdb081dbdbf9b",
    ),
    "random-monotone-3": (
        "9e02ede354914a40d470e70b1974b6d405c8aedf1af16e131abc7d6f9fbf19d6",
        "7a91163cf00233d2cee82ba22f8fdba0f94386cd479dfd2e5cfc01a3c5ee4a16",
    ),
    "random-monotone-4": (
        "f81bcf7e97e36eabf2fa103f60eea44a55c21e0fd1a35b62440b8d44017a629e",
        "ddd8c2c177f88d4862dc0945a70767af19418d9877237fde9752cdfc276e62a4",
    ),
    "random-monotone-5": (
        "395a942a22833c05d7bbf83e3b4212626a4bf15e362f8cfb664449f57d34e80a",
        "c3be4d76c41ee31e57cd79c5384c986b4b38523a32597e407d9c7c0e33d6c8df",
    ),
    "random-monotone-6": (
        "c910d3ea287b0339efac66515149be3a00115d54a1dfb63fa97bf0bbe4cafb6a",
        "2f461b0c9cc62c8d670e9f7654b81e0b7e66ffa4ef6171ae7dd422f7759825bd",
    ),
    "random-monotone-7": (
        "1cc1b91f7dc6f499e77d912b5b234ebffa0130f908f948668d4de86a0c573d73",
        "a402253172d1d1663375afde3a557fc6924a6c0b5b36bf98347b65d01646ccfe",
    ),
    "random-monotone-8": (
        "e398db8d7b6ca145be3f13bcea09a20a30780b0db40d2888b9821181e0c4b294",
        "1c24f657cde4d67fb9238de26eebbe78bdc599ee18aeacbabf3c3ea950d232a1",
    ),
    "random-monotone-9": (
        "473333a962f637b76602fe31e456948f487fca113043017a1a1872b750c057bc",
        "5e2a4278a96dd640ec9253336bfd61b59fbcddf967efd6f15991b4ae234d8995",
    ),
}


def test_every_corpus_problem_is_pinned():
    assert sorted(_corpus()) == sorted(CORPUS_GOLDEN)


@pytest.mark.parametrize("name", sorted(CORPUS_GOLDEN))
def test_corpus_digests(name):
    assert _digests(_corpus()[name]) == CORPUS_GOLDEN[name]
