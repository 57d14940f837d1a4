"""Engine oracle: sha256 digests of the averaging engine's exact output.

The digests were taken from the engine that re-expanded exp(L_w) f over
every degree at every order, and exp(D_w) w once per order and once more at
the end. The Lie triangle that replaced it takes each bracket once and adds
the same terms in the same order, so every printed coefficient must come out
the same: `to_string` of each g component, `w.debug_lines()` and the
`debug_lines()` of each u_i, for five scheme fields under each convention,
and the whole-field transforms on the same generators and on the small
fields of `test_fourieralg.py::TestExpOperator`.
"""

import hashlib

import pytest

from esgain.averaging import CONVENTIONS, average
from esgain.fourieralg import (GradedField, TrigPoly, exp_operator_apply,
                               transform_part, unit_term)
from esgain.schemes import SchemeInstance, scheme_graded_field
from esgain.symexpr import Var, cos_of, parse_expr, sin_of, to_string

H1 = "-cos(x) + 0.16666666666666666*x^3"
H2 = "sin(x1) + 0.5*x2^2"
CASES = {
    "basic1d-4": (dict(kind="basic1d", a=0.3, eta=0.21), 4),
    "basic1d-6": (dict(kind="basic1d", a=0.3, eta=0.21), 6),
    "plant1d-4": (dict(kind="plant1d", a=0.3, eta=0.21, omega=0.5), 4),
    "filtered1d-3": (dict(kind="filtered1d", a=0.3, eta=0.21, mu=0.09, gamma=3.8), 3),
    "planar-4": (dict(kind="planar", a=0.2, eta=0.25), 4),
}

# (g, w, u) per case and convention
AVERAGE = {
    "basic1d-4/u-zero-mean": (
        "5e2e96a1369c8b877437b754c91c75f0dc6c3fc24c0bb99ae2b5e466b032ff88",
        "e9da0b79f948513dc07b4cbbc21cebe36c4dfc590f233dff2de1283d3e4b5179",
        "ef21e05e47954c6b1b4735c3553c170cf60e5051a1f1f8770d8821255661635e",
    ),
    "basic1d-4/w-zero-mean": (
        "2c7cbee7f2a4025ea4ba615ce0c91c9db4751845c2b64800ca5fcea05a5470db",
        "70494ce077d3e852beb1e62f10b252f9716fe1835c27b0f46884e2d0fdac0504",
        "9228b058ba5f4aa9fe1b6b2c44228f9a04183698028d403307184f0218628127",
    ),
    "basic1d-4/match-at-t0": (
        "4bde3eda9960c7409a3aa043478dd9dd62b31ff454b75c60abd34b209603aad4",
        "6ba86809a569a0c3dc44d06626d89b0d1e7b4a7f79076a8334dca2d9ccca4056",
        "934b2ca3da160515e731f80d9ab2c2d714b59c5436427ae3bfd03f95daff23ee",
    ),
    "basic1d-6/u-zero-mean": (
        "2b0ed5efbc11353d23c709f9a2e4d1d3a3c66bfb1a7f1b7ce3d5f0170736c96a",
        "b2dd448448710540cba39bb6b02801f7307ee13d37000720e7f1f8a3954b1519",
        "85777a7e52f9cdad3c95b2bac8c45002461997330470380b078e519a8915f381",
    ),
    "basic1d-6/w-zero-mean": (
        "694a5e9eb74aafd24bbd77b3535c1bf432f1f6e0be97f5fc282184413d9bec69",
        "7f1b73ded823b251d20c8a662f0e1f3840eef6f0400b8e1a172bfa97dcc28138",
        "e969ecdef5fc00d7bef65e39d624e9c63d7f9930e2f81925c4847e01569f7009",
    ),
    "basic1d-6/match-at-t0": (
        "412543c306ac228eb5e2909de15695d9f75c2b64dd950f23cd1349a156f73d7c",
        "f8fabdf86fe651154f2538042bd31756a3d150b34b4fd4b41070147e2a010fa8",
        "5d854e70f7ebf9d62270b4252a5be7f508169466e95b8f7792e389335fd6595b",
    ),
    "plant1d-4/u-zero-mean": (
        "5e2e96a1369c8b877437b754c91c75f0dc6c3fc24c0bb99ae2b5e466b032ff88",
        "e9da0b79f948513dc07b4cbbc21cebe36c4dfc590f233dff2de1283d3e4b5179",
        "ef21e05e47954c6b1b4735c3553c170cf60e5051a1f1f8770d8821255661635e",
    ),
    "plant1d-4/w-zero-mean": (
        "2c7cbee7f2a4025ea4ba615ce0c91c9db4751845c2b64800ca5fcea05a5470db",
        "70494ce077d3e852beb1e62f10b252f9716fe1835c27b0f46884e2d0fdac0504",
        "9228b058ba5f4aa9fe1b6b2c44228f9a04183698028d403307184f0218628127",
    ),
    "plant1d-4/match-at-t0": (
        "4bde3eda9960c7409a3aa043478dd9dd62b31ff454b75c60abd34b209603aad4",
        "6ba86809a569a0c3dc44d06626d89b0d1e7b4a7f79076a8334dca2d9ccca4056",
        "934b2ca3da160515e731f80d9ab2c2d714b59c5436427ae3bfd03f95daff23ee",
    ),
    "filtered1d-3/u-zero-mean": (
        "fa3d352234b18cead8a701d4b322e02ea36d7cce040f5814658bf4af09ef80e9",
        "2df16e32b46d437256702256d3bd81e507bff908d3c6cc0cd9813dbe7f781a27",
        "7f30000fafbcb61c7472a689a7b6de4edfb667db14dff62429fa1a7497ebab7f",
    ),
    "filtered1d-3/w-zero-mean": (
        "fa3d352234b18cead8a701d4b322e02ea36d7cce040f5814658bf4af09ef80e9",
        "74053ca2b28d527ac3857e9b6b7d5df7303195657d69dbd537d6a53c820cb730",
        "92104508044601628ec8b218187d76f12c7d0356fa7a8f5eeba5dece515ef9d8",
    ),
    "filtered1d-3/match-at-t0": (
        "9d3547d1da11bc371698e9134155a2762b02bbd169fe602b5d107d7b553ff1ed",
        "27b1132e2408ff82c9f445766fbd4776ce54d92f59950def5f67895bd779213b",
        "b257862600e168286ffbbfb2800ec08b2b0de3ada935d3c5369574bc3542c977",
    ),
    "planar-4/u-zero-mean": (
        "d906e6d5e6607ece2354701d3057c593dd9174a3c120dc66de92a4ef6ec8645e",
        "b966bd469d1487714eb6d673d1fb3e8fd01264bce23ce4206622dfc24add75f9",
        "2084bae3905d9133ad1b9e8408ade1b48d4b199c275ca7620bcb081f95347739",
    ),
    "planar-4/w-zero-mean": (
        "12442e8b9d5b7a84bd53e4af0d206ccd446227d7c66f05e84d208e15831bc479",
        "8e673f66f7e1cc8ad18f74a5c598e25401bceeae42653065f1e9520822ba5c66",
        "61229dcdb12f92f210aff9bcd9c2c3c1ade57ee84d9dbf5d63955f90f20b9e47",
    ),
    "planar-4/match-at-t0": (
        "c40e83c390f97be4558e2725dd6ffadd0c05f36b57e998566c2bc1435de3c5f8",
        "7b915313c710d0c9fa6b603be532a9a274b35a4a444981cf960363ae78d8f0be",
        "d29d524eb6c68cc2ca92f37055fc447eb107ce1f875f1326e27af4ea836a32a3",
    ),
}

# (exp_operator_apply(w, f, n), transform_part(w, n)) with w the u-zero-mean generator
TRANSFORMS = {
    "basic1d-4": (
        "4935a68229c844efcd6bf0d1f80d278cb4bf7ef706bd51c53c0be7ef60f860a6",
        "29bec1194e7f7e10f4f7b45d9b59602e54804fe8f43d8560f91520ebe865b456",
    ),
    "basic1d-6": (
        "505a1040f7c4e17618703410ab6ed4713416b059f7a5646a02c758cb2e01a4b8",
        "3aae9167edc54dc4d6f4d88b649980a4e4bf19f699f555c7efc2711cac5d3f47",
    ),
    "plant1d-4": (
        "4935a68229c844efcd6bf0d1f80d278cb4bf7ef706bd51c53c0be7ef60f860a6",
        "29bec1194e7f7e10f4f7b45d9b59602e54804fe8f43d8560f91520ebe865b456",
    ),
    "filtered1d-3": (
        "dddd15a4b8d41819874a38ff1bbe22367a39e114d2d3e850816bee15a49dac3a",
        "7ec1c5c4da0ad59521c641623e2ecf920ec596da97cf46860a805ce54450799d",
    ),
    "planar-4": (
        "936d6c217334e85f30c8f77e4e9143d5b82e5b0f4b318eee4d963b6e519a4fae",
        "b3555096345e816f8d0f98d60fefbc428af0692e882732dbe7fbb55d5218881d",
    ),
}

SMALL = {
    "zero-f":
        "04bd30b618cc3e2d51e3d249509ec56c978c502bb222d2e61243805b12e6e6bf",
    "zero-id":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "w-id-3":
        "3be5fd2600be04e3819816eb76c347d0a1da74d9e3dcf4624f675e3948d5bb48",
    "w-id-4":
        "74543c79bedecee21a23801276f32c99ec74adb4b26b3c152d8eadb26a8c2d0a",
    "w-fc-6":
        "0784d913dae092a913ba9ea5336cc467a2f92c96aa2089e82b032ede8e3fad16",
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def case_field(name):
    kw, n = CASES[name]
    h = parse_expr(H2 if kw["kind"] == "planar" else H1, dim=2 if kw["kind"] == "planar" else 1)
    return scheme_graded_field(SchemeInstance(h=h, **kw), n), n


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("name", list(CASES))
def test_average_matches_frozen_digests(name, convention):
    f, n = case_field(name)
    res = average(f, n, convention=convention)
    got = (digest([to_string(e) for g in res.g for e in g]),
           digest(res.w.debug_lines()),
           digest([line for u in res.u for line in u.debug_lines() + ["--"]]))
    assert got == AVERAGE[f"{name}/{convention}"]


@pytest.mark.parametrize("name", list(CASES))
def test_whole_field_transforms_match_frozen_digests(name):
    f, n = case_field(name)
    w = average(f, n).w
    got = (digest(exp_operator_apply(w, f, n).debug_lines()),
           digest(transform_part(w, n).debug_lines()))
    assert got == TRANSFORMS[name]


def test_small_transforms_match_frozen_digests():
    def field_1d(*terms):
        return GradedField.build(1, 8, terms)

    w = field_1d(unit_term(1, 0, sin_of(Var(0)), TrigPoly.cosine(), 1))
    f = field_1d(unit_term(1, 0, sin_of(Var(0)), TrigPoly.sine(), 1))
    fc = field_1d(unit_term(1, 0, cos_of(Var(0)), TrigPoly.sine(), 1))
    z = GradedField.zero(1, 8)
    got = {
        "zero-f": exp_operator_apply(z, f, 8),
        "zero-id": transform_part(z, 8),
        "w-id-3": transform_part(w, 3),
        "w-id-4": transform_part(w, 4),
        "w-fc-6": exp_operator_apply(w, fc, 6),
    }
    assert {k: digest(v.debug_lines()) for k, v in got.items()} == SMALL
