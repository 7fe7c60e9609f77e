"""The chain and report writers: jsonio.chain_dumps against the standard library byte for byte, and the report file's layout."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lftdom import full_space, invertibles_domain, jsonio, quadric_domain, transitive_chain
from lftdom.cli import main
from lftdom.sampling import random_domain_member
from lftdom.verify import RunConfig, example_domains


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def test_verify_report_file_is_the_standard_library_text(tmp_path, capsys):
    # the report's contract: the indented, key-sorted layout, and no NaN
    out = tmp_path / "report.json"
    assert main(["verify", "--trials", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    report = json.loads(text)
    report["suites"][0]["max_residual"] = float("nan")
    with pytest.raises(ValueError):
        jsonio.dumps(report)


def test_dumps_matches_on_chain_objects(scaled_member):
    rng = np.random.default_rng(15)
    doms = example_domains(RunConfig()) + [quadric_domain(4).domain]
    for dom in doms:
        chain = transitive_chain(dom, scaled_member(rng, dom, 0.5, 0.05))
        obj = jsonio.chain_to_obj(chain)
        factors = [jsonio.matrix_to_obj(f.coefficient_matrix()) for f in chain.factors]
        assert [f["M"] for f in obj["factors"]] == factors


def test_transit_chain_file_is_the_standard_library_text(tmp_path, capsys):
    dom = example_domains(RunConfig())[1]
    dom_file, target_file, chain_file = (tmp_path / f for f in ("d.json", "t.json", "c.json"))
    dom_file.write_text(jsonio.dumps(jsonio.domain_to_obj(dom)), encoding="utf-8")
    target = random_domain_member(np.random.default_rng(16), dom, margin=0.05)
    target_file.write_text(jsonio.matrix_dumps(target), encoding="utf-8")
    assert main(["transit", str(dom_file), str(target_file), "--out", str(chain_file)]) == 0
    capsys.readouterr()
    text = chain_file.read_text(encoding="utf-8")
    assert text == reference(json.loads(text)) + "\n"


def complex_stack(re, im):
    """re + i im with the sign of every zero kept, which re + 1j * im loses."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def chain_of(coefficients, waypoints, residual):
    return SimpleNamespace(coefficients=coefficients, waypoints=tuple(waypoints), residual=residual)


def assert_same_text(text, want):
    """text == want, asserted first by the differing lines: pytest's diff of two long texts takes minutes."""
    lines, want_lines = text.splitlines(), want.splitlines()
    assert [(a, b) for a, b in zip(lines, want_lines) if a != b] == []
    assert len(lines) == len(want_lines)
    assert text == want


def assert_chain_text(chain):
    assert_same_text(jsonio.chain_dumps(chain), reference(jsonio.chain_to_obj(chain)))


CHAIN_NUMBERS = [0.0, -0.0, 5e-324, 1e-05, 1e16, 1e308, -1e308, 1.1102230246251565e-16, -1.1102230246251565e-16]


@st.composite
def chain_stacks(draw):
    k, h, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from(CHAIN_NUMBERS), st.floats(allow_nan=False, allow_infinity=False))

    def stack(*shape):
        # fill=st.nothing() draws every entry on its own, as a list of entries
        # did; the default fill would repeat one drawn value across most entries
        parts = draw(arrays(np.float64, (2, *shape), elements=entry, fill=st.nothing()))
        return complex_stack(parts[0], parts[1])

    return chain_of(stack(m, k + h, k + h), stack(m + 1, k, h), draw(entry))


@settings(max_examples=150, deadline=None)
@given(chain_stacks())
def test_chain_dumps_writes_the_bytes_of_the_standard_library(chain):
    assert_chain_text(chain)


def test_chain_dumps_matches_on_real_chains(scaled_member):
    rng = np.random.default_rng(17)
    doms = example_domains(RunConfig()) + [quadric_domain(4).domain]
    doms += [example_domains(RunConfig(dim_k=k, dim_h=h))[0] for k, h in ((3, 1), (1, 3))]
    shapes = set()
    for dom in doms:
        chain = transitive_chain(dom, scaled_member(rng, dom, 0.5, 0.05))
        assert_chain_text(chain)
        shapes.add(dom.space.shape)
    assert {(2, 2), (4, 4), (3, 1), (1, 3)} <= shapes


def test_chain_dumps_of_single_matrix_stacks():
    # one factor, and one or two waypoints
    rng = np.random.default_rng(18)
    for k, h in ((1, 1), (1, 2), (2, 1), (3, 3)):
        m = rng.standard_normal((1, k + h, k + h)) + 1j * rng.standard_normal((1, k + h, k + h))
        w = rng.standard_normal((2, k, h)) - 0.0j
        assert_chain_text(chain_of(m, w, 1e-16))
        assert_chain_text(chain_of(m, w[:1], 0.0))


def decade_sweep():
    """Finite floats of every spelling repr has, each with its negative."""
    rng = np.random.default_rng(19)
    mantissas = rng.uniform(1, 10, 4).tolist()
    mantissas += [round(m, digits) for m in mantissas for digits in (0, 2)]
    values = [float(f"{m!r}e{e}") for e in range(-324, 309) for m in mantissas]
    for edge in (1e-9, 1e-5, 1e-4, 1e16):
        values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    values += list(np.ldexp(1.0, np.arange(-1074, 1024))) + [0.0, -0.0, 10.00001, 100.0000123]
    values = np.array(values)
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


@pytest.mark.parametrize("limit", [1e16, np.inf])
def test_chain_dumps_spells_every_decade_as_repr_does(limit):
    # below 1e16 the chain holds no value for which the fixed-notation pass runs
    values = decade_sweep()
    values = values[np.abs(values) < limit]
    values = values[: values.size // 8 * 8].reshape(-1, 2, 2, 2)
    coefficients = complex_stack(values[..., 0], values[..., 1])
    chain = chain_of(coefficients, [coefficients[0, :1], coefficients[-1, 1:]], values[0, 0, 0, 1])
    assert_chain_text(chain)


@pytest.mark.parametrize("spelling", [
    "1e-5", "1e-05", "1e16", "1e+16", "1E16", "0.00001", "1e5", "2.5E-7", "10000000000000000.0",
])
def test_respelling_gives_repr_for_each_shortest_round_trip_spelling(spelling):
    value = float(spelling)
    text = "[\n  " + spelling + ",\n  -" + spelling + "\n]"
    assert jsonio._respell(text, large=value >= 1e16) == reference([value, -value])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_chain_dumps_refuses_non_finite_entries(bad):
    m, w = np.ones((2, 2, 2), dtype=complex), np.ones((3, 1, 1), dtype=complex)
    for where in ("coefficient", "waypoint", "imaginary", "residual"):
        coefficients, waypoints, residual = m.copy(), w.copy(), 0.0
        if where == "coefficient":
            coefficients[1, 0, 1] = bad
        elif where == "waypoint":
            waypoints[2, 0, 0] = bad
        elif where == "imaginary":
            coefficients[0, 1, 1] += 1j * bad
        else:
            residual = bad
        chain = chain_of(coefficients, waypoints, residual)
        with pytest.raises(ValueError):
            reference(jsonio.chain_to_obj(chain))
        with pytest.raises(ValueError):
            jsonio.chain_dumps(chain)


def test_matrix_round_trip_keeps_the_sign_of_every_zero():
    parts = [0.0, -0.0, 1.0, -2.5]
    re, im = np.meshgrid(parts, parts)
    m = complex_stack(re, im)
    back = jsonio.matrix_loads(jsonio.matrix_dumps(m))
    assert back.tobytes() == m.tobytes()
    example = complex_stack([[-0.0, 1.0], [-0.0, 2.0]], [[1.0, -0.0], [-0.0, 3.0]])
    assert jsonio.matrix_loads(jsonio.matrix_dumps(example)).tobytes() == example.tobytes()


def test_domain_file_keeps_signed_zeros():
    obj = jsonio.domain_to_obj(invertibles_domain(full_space(2, 2)))
    obj["C"] = jsonio.matrix_to_obj(complex_stack([[1.0, -0.0], [-0.0, 1.0]], [[-0.0, 0.0], [-0.0, -0.0]]))
    obj["D"] = jsonio.matrix_to_obj(complex_stack([[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [0.0, 0.0]]))
    obj["Z0"] = jsonio.matrix_to_obj(complex_stack(np.eye(2), [[-0.0, -0.0], [-0.0, -0.0]]))
    back = jsonio.domain_from_obj(jsonio.loads(jsonio.dumps(obj)))
    for name, got in (("C", back.c), ("D", back.d), ("Z0", back.z0)):
        assert got.tobytes() == complex_stack(obj[name]["re"], obj[name]["im"]).tobytes()
