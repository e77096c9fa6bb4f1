"""Class rings against closed forms from the literature, computed without orbring.

The paper's theorem says the virtual ring of [C^n/G] is the Chen-Ruan ring
of its cotangent double.  For symmetric and wreath-product groups both sides
have closed forms in the literature, which read only cycle types and
partitions; for diagonal groups they read only each element's phases.  Each
oracle here is computed from those alone, so a fault shared by the fast paths
and the per-pair scans of support cannot hide from it.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from orbring import CR, VIRT, OrbifoldModel, OrbifoldSpec, sector_bijection
from support import decoded, diagonal_generators, diagonal_spec, gmpn_spec


def symmetric_spec(n):
    """S_n permuting the coordinates of C^n, generated by adjacent transpositions."""
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append({"perm": perm, "phases": ["0"] * n})
    return OrbifoldSpec.from_dict({"name": f"S{n}", "dimension": n, "generators": gens})


def cycle_type(perm):
    """Cycle lengths of a permutation of 0..len(perm)-1, longest first."""
    seen = set()
    lengths = []
    for start in range(len(perm)):
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def lehn_sorger(n):
    """The graded class algebra of Lehn and Sorger (Duke 2001) for S_n.

    With l(s) = n - #cycles(s) and one representative z_c per class c,
      N_abc = #{s in C_a : t = s^-1 z_c in C_b, l(s) + l(t) = l(z_c)},
    and the class of cycle type L has degree 2 l = 2 (n - len(L)).  Returns
    (degrees, constants), keyed by cycle types.
    """
    perms = list(itertools.permutations(range(n)))
    types = {p: cycle_type(p) for p in perms}
    representatives = {}
    for p in perms:
        representatives.setdefault(types[p], p)
    constants = Counter()
    for type_c, z in representatives.items():
        for s in perms:
            inverse = [0] * n
            for i, j in enumerate(s):
                inverse[j] = i
            t = tuple(inverse[z[i]] for i in range(n))
            if len(types[s]) + len(types[t]) == n + len(type_c):
                constants[types[s], types[t], type_c] += 1
    degrees = {lam: 2 * (n - len(lam)) for lam in representatives}
    return degrees, dict(constants)


def keyed_by_cycle_type(model, ring, n):
    """(degrees, constants) of a class ring, each class keyed by its cycle type on C^n."""
    part = model.table.conjugacy_classes()
    key = [cycle_type(model.table.element(rep).perm[:n]) for rep in part.representatives]
    degrees = dict(zip(key, ring.degrees))
    constants = {(key[a], key[b], key[c]): v for (a, b, c), v in ring.constants.items()}
    return degrees, constants


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_symmetric_class_rings_are_the_lehn_sorger_algebra(n):
    model = OrbifoldModel(symmetric_spec(n))
    doubled = model.cotangent_model()
    expected = lehn_sorger(n)
    virt = model.algebra(VIRT).invariant_ring()
    cr_doubled = doubled.algebra(CR).invariant_ring()
    assert keyed_by_cycle_type(model, virt, n) == expected
    assert keyed_by_cycle_type(doubled, cr_doubled, n) == expected


def goettsche_degrees(m, n):
    """Degrees of the q^n coefficient of Goettsche's product, with multiplicity.

    The product is prod_k 1 / ((1 - t^(2k-2) q^k) (1 - t^(2k) q^k)^(m-1)),
    the Poincare series of the Hilbert schemes of points on the resolved
    C^2/Z_m (Goettsche 1990; Fantechi and Goettsche, Duke 2003).  The series
    is held as one Counter of t powers per power of q up to q^n.
    """
    series = [Counter() for _ in range(n + 1)]
    series[0][0] = 1
    for k in range(1, n + 1):
        for t_power, times in ((2 * k - 2, 1), (2 * k, m - 1)):
            for _ in range(times):
                # dividing by 1 - t^a q^k: in ascending powers of q, each
                # coefficient takes t^a times the already-divided one k below
                for q in range(k, n + 1):
                    for power, count in series[q - k].items():
                        series[q][power + t_power] += count
    return series[n]


@pytest.mark.parametrize(
    "m, n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (5, 3)]
)
def test_wreath_class_degrees_follow_goettsche(m, n):
    doubled = OrbifoldModel(gmpn_spec(m, 1, n)).cotangent_model()
    ring = doubled.algebra(CR).invariant_ring()
    assert Counter(ring.degrees) == goettsche_degrees(m, n)


@pytest.mark.parametrize("m, n", [(2, 5), (4, 4)])
def test_wreath_class_rings_at_scale_follow_goettsche(m, n):
    # orders 3840 and 6144: the class ring reads only the representatives'
    # rows and their parent walks, never every product row
    doubled = OrbifoldModel(gmpn_spec(m, 1, n)).cotangent_model()
    ring = doubled.class_ring(CR)
    assert Counter(ring.degrees) == goettsche_degrees(m, n)
    assert None in doubled.table._rows


def diagonal_closure(generators):
    """Every phase vector a(g) in [0, 1)^n of the group, from the generators' powers alone."""
    orders = [math.lcm(*(a.denominator for a in phases)) for phases in generators]
    n = len(generators[0])
    return {
        tuple(sum((e * phases[i] for e, phases in zip(powers, generators)), Fraction(0)) % 1
              for i in range(n))
        for powers in itertools.product(*map(range, orders))
    }


def phase_vector(element):
    return tuple(Fraction(p.numerator, p.denominator) for p in element.phases)


def cr_rule(a, b):
    """Borisov-Chen-Smith for one cone with the divisor classes set to zero: no coordinate wraps."""
    return int(all(x + y < 1 for x, y in zip(a, b)))


def virt_rule(a, b):
    """No coordinate moved by both factors."""
    return int(not any(x and y for x, y in zip(a, b)))


def assert_toric_rules(generators):
    """Both sector rings, and the doubled cr ring, against the phase rules of each pair."""
    model = OrbifoldModel(diagonal_spec(generators))
    doubled = model.cotangent_model()
    vectors = [phase_vector(element) for element in decoded(model.table)]
    assert set(vectors) == diagonal_closure(generators)
    doubled_index = {phase_vector(e): i for i, e in enumerate(decoded(doubled.table))}
    image = [doubled_index[a + tuple(-x % 1 for x in a)] for a in vectors]
    assert tuple(image) == sector_bijection(model.table, doubled.table)
    cr, virt = model.algebra(CR).constants, model.algebra(VIRT).constants
    cr_doubled = doubled.algebra(CR).constants
    for g, a in enumerate(vectors):
        for h, b in enumerate(vectors):
            assert cr[g][h] == cr_rule(a, b), (a, b)
            assert virt[g][h] == virt_rule(a, b), (a, b)
            assert cr_doubled[image[g]][image[h]] == virt_rule(a, b), (a, b)


@pytest.mark.parametrize("N", range(1, 13))
def test_cyclic_groups_on_the_line_follow_the_toric_rules(N):
    assert_toric_rules([(Fraction(1, N),)])


def test_z2_times_z4_follows_the_toric_rules():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert_toric_rules([(half, half, Fraction(0)), (quarter, Fraction(0), 3 * quarter)])


@given(diagonal_generators())
@settings(max_examples=40, deadline=None)
def test_diagonal_groups_follow_the_toric_rules(generators):
    assert_toric_rules(generators)
