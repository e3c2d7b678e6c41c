import itertools
import math
from pathlib import Path

import pytest

from almostcover.cover import orbit_reduce, verify_cover
from almostcover.families import (
    FAMILY_ARGS,
    FamilySpec,
    expected_size,
    generate,
    sharp_cover_vnk,
    symmetry_generators,
    szw_sharp_polynomial,
)
from almostcover.fields import GF, QQ
from almostcover.vanishing import buchberger_moller


def ints(V):
    return [tuple(int(x.value) if hasattr(x, "value") else int(x) for x in p) for p in V.points]


def test_jnq_2_3_points():
    V = generate(FamilySpec.parse("jnq:2:3"))
    assert ints(V) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    assert len(V) == math.comb(2 + 3 - 1, 3 - 1)


def test_vnk_3_1_points_in_subset_order():
    V = generate(FamilySpec.parse("vnk:3:1"))
    assert ints(V) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_perm_3_points():
    V = generate(FamilySpec.parse("perm:3"))
    assert len(V) == 6
    assert ints(V) == sorted(itertools.permutations((1, 2, 3)))


def test_generated_sizes_match_closed_forms():
    specs = []
    for n in range(1, 6):
        specs.append(f"cube:{n}")
        for k in range(n):
            specs.append(f"vnk:{n}:{k}")
        for q in (2, 3, 4):
            specs.append(f"jnq:{n}:{q}")
    specs += ["perm:1", "perm:2", "perm:3", "perm:4", "ag:2:2", "ag:2:3", "ag:3:2"]
    for desc in specs:
        spec = FamilySpec.parse(desc)
        assert len(generate(spec)) == expected_size(spec), desc


def test_vnkt_appends_indicator_vector():
    V = generate(FamilySpec.parse("vnkt:3:1:1,2"))
    assert ints(V)[-1] == (1, 1, 0)
    assert len(V) == 5


def test_family_validation():
    with pytest.raises(ValueError):
        FamilySpec.parse("vnk:3:3")  # k must stay below n
    with pytest.raises(ValueError):
        FamilySpec.parse("vnkt:3:1:1")  # |T| must exceed k
    with pytest.raises(ValueError):
        FamilySpec.parse("jnq:2:1")
    with pytest.raises(ValueError):
        FamilySpec.parse("ag:2:3", field=QQ)
    with pytest.raises(ValueError):
        FamilySpec.parse("jnq:2:5", field=GF(3))  # embedding not injective
    with pytest.raises(ValueError):
        FamilySpec.parse("nonsense:3")
    with pytest.raises(ValueError):
        FamilySpec.parse("cube")
    for t in ("a", "1,,2", "1,2,"):
        with pytest.raises(ValueError, match=f"bad T argument '{t}'"):
            FamilySpec.parse(f"vnkt:3:1:{t}")
    with pytest.raises(ValueError, match="bad T argument 'a'"):
        FamilySpec.parse("vnkt:x:1:a")  # T is read before n and k
    # surplus arguments are an error, not silently dropped
    for text in ("cube:2:5", "perm:3:9", "vnk:4:1:2", "vnkt:4:1:1,2:3", "ag:2:3:1"):
        with pytest.raises(ValueError, match=text):
            FamilySpec.parse(text)


def test_missing_argument_messages():
    messages = {
        "cube": "family 'cube' is missing its n argument",
        "vnk:3": "family 'vnk' is missing its k argument",
        "vnkt:3": "vnkt needs n, k and T, e.g. vnkt:3:1:1,2",
        "vnkt:3:1": "vnkt needs n, k and T, e.g. vnkt:3:1:1,2",
        "jnq:2": "family 'jnq' is missing its q argument",
        "inq:2": "family 'inq' is missing its q argument",
        "perm": "family 'perm' is missing its n argument",
        "ag:2": "family 'ag' is missing its q argument",
    }
    assert {text.split(":")[0] for text in messages} == set(FAMILY_ARGS)
    for text, message in messages.items():
        with pytest.raises(ValueError) as excinfo:
            FamilySpec.parse(text)
        assert str(excinfo.value) == message


def test_describe_parses_back():
    cases = [
        ("cube:3", QQ), ("cube:3", GF(5)),
        ("vnk:4:2", QQ), ("vnk:4:2", GF(5)),
        ("vnkt:4:1:1,3", QQ), ("vnkt:4:1:1,3", GF(5)),
        ("jnq:2:3", QQ), ("jnq:2:3", GF(5)),
        ("inq:2:3", QQ),
        ("perm:3", QQ),
        ("ag:2:5", GF(5)),
    ]
    assert {text.split(":")[0] for text, _ in cases} == set(FAMILY_ARGS)
    for text, field in cases:
        spec = FamilySpec.parse(text, field=field)
        assert spec.field == field and spec.describe() == text
        assert FamilySpec.parse(spec.describe(), field=spec.field) == spec


def test_readme_family_table_matches_the_grammar():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Family specs", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1].strip().strip("`") for line in section.splitlines()[2:]]
    assert {row.split(":")[0]: row for row in rows} == {
        kind: ":".join([kind, *names]) for kind, names in FAMILY_ARGS.items()
    }
    assert len(rows) == len(FAMILY_ARGS)


def test_ag_forces_matching_field():
    spec = FamilySpec.parse("ag:2:3")
    assert spec.field == GF(3)
    V = generate(spec)
    assert len(V) == 9 and V.field == GF(3)


def test_jnq_over_gf_embeds_residues():
    spec = FamilySpec.parse("jnq:2:3", field=GF(5))
    V = generate(spec)
    assert len(V) == 6
    assert V.field == GF(5)


def test_sharp_cover_vnk():
    for n, k in [(3, 1), (4, 2), (3, 0), (4, 3)]:
        V = generate(FamilySpec.parse(f"vnk:{n}:{k}"))
        cover = sharp_cover_vnk(n, k)
        assert len(cover) == k
        assert verify_cover(V, V.points[0], cover)
    with pytest.raises(ValueError):
        sharp_cover_vnk(3, 3)


def test_szw_sharp_polynomial_small():
    f = szw_sharp_polynomial(2, 1)
    # (x1 + x2)(x1 + x2 - 1): value 2 at the all-ones vertex
    assert f.degree() == 2
    assert f.evaluate((QQ.scalar(1), QQ.scalar(1))) == 2
    g = szw_sharp_polynomial(3, 0)
    assert g.text() == "x1 + x2 + x3"


def test_szw_vanishes_exactly_on_low_levels():
    for n, k in [(3, 1), (3, 2), (4, 2)]:
        f = szw_sharp_polynomial(n, k)
        assert f.degree() == k + 1
        V = generate(FamilySpec.parse(f"vnk:{n}:{k}"))
        data = buchberger_moller(V)
        assert data.normal_form(f).is_zero()
        for vertex in itertools.product((0, 1), repeat=n):
            value = f.evaluate(tuple(QQ.scalar(x) for x in vertex))
            assert bool(value) == (sum(vertex) > k)


def test_symmetry_generators_are_transitive():
    for desc in ("cube:2", "cube:3", "perm:3", "perm:4", "ag:2:3", "ag:3:2"):
        spec = FamilySpec.parse(desc)
        V = generate(spec)
        partition = orbit_reduce(V, symmetry_generators(spec))
        assert partition.is_transitive, desc


def test_symmetry_generators_unavailable():
    for desc in ("vnk:3:1", "jnq:2:3", "vnkt:3:1:1,2", "inq:2:2"):
        with pytest.raises(ValueError, match="no declared symmetry"):
            symmetry_generators(FamilySpec.parse(desc))


def test_inq_is_rational_only():
    V = generate(FamilySpec.parse("inq:2:3"))
    assert V.field == QQ
    with pytest.raises(ValueError):
        FamilySpec.parse("inq:2:3", field=GF(5))
