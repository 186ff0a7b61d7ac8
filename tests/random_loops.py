"""Random constant-distance DOACROSS loops, shared by the property tests.

Both generators draw loops whose references are ``A``/``B`` at constant
offsets from the index, so every dependence has an exact distance; the
1-D generator also draws modulus guards.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.depend.model import ArrayRef, Loop, Statement, index_expr, ref1


@st.composite
def constant_distance_loops(draw):
    """A random 1-D loop whose refs are A[i+c] / B[i+c], c in [-3, 3]."""
    n_statements = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=6, max_value=14))
    body = []
    for position in range(n_statements):
        array_w = draw(st.sampled_from(["A", "B"]))
        array_r = draw(st.sampled_from(["A", "B"]))
        writes = ()
        reads = ()
        if draw(st.booleans()):
            writes = (ref1(array_w, 1, draw(st.integers(-3, 3))),)
        if draw(st.booleans()) or not writes:
            reads = (ref1(array_r, 1, draw(st.integers(-3, 3))),)
        guard = None
        if draw(st.booleans()):
            modulus = draw(st.integers(min_value=2, max_value=3))
            guard = (lambda m: lambda index: index[0] % m != 0)(modulus)
        body.append(Statement(f"S{position}", writes=writes, reads=reads,
                              cost=draw(st.integers(1, 12)), guard=guard))
    return Loop("random", bounds=((1, n),), body=body)


@st.composite
def nested_constant_distance_loops(draw):
    """Random 2-deep nests with refs A[i+c1, j+c2]."""
    n = draw(st.integers(min_value=3, max_value=5))
    m = draw(st.integers(min_value=3, max_value=5))
    n_statements = draw(st.integers(min_value=1, max_value=3))
    body = []
    margin = 3
    for position in range(n_statements):
        def make_ref():
            array = draw(st.sampled_from(["A", "B"]))
            c1 = draw(st.integers(-2, 2))
            c2 = draw(st.integers(-2, 2))
            return ArrayRef(array, (index_expr(0, 2, c1),
                                    index_expr(1, 2, c2)))
        writes = (make_ref(),) if draw(st.booleans()) else ()
        reads = (make_ref(),) if (draw(st.booleans()) or not writes) else ()
        body.append(Statement(f"S{position}", writes=writes, reads=reads,
                              cost=draw(st.integers(1, 8))))
    shapes = {"A": (n + 2 * margin, m + 2 * margin),
              "B": (n + 2 * margin, m + 2 * margin)}
    return Loop("nested-rand", bounds=((margin, margin + n - 1),
                                       (margin, margin + m - 1)),
                body=body, array_shapes=shapes)
