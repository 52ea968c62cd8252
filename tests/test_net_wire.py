"""Wire formats for shipped solutions: SolutionBatch and JoinDigest.

Pins the PR's core size invariants:

* the plain encoding (``size_of`` over a list of mappings) charges a
  repeated term its full size on every row — the inefficiency the
  dictionary-delta batch exists to remove;
* a batch is deterministic, lossless, and **never** costs more than the
  plain encoding plus the bounded ``BATCH_HEADER_BYTES`` envelope;
* a batch charges exactly what the term-table / index-pair codec would
  put on the wire (property test against that codec, kept here as the
  reference);
* a digest never produces a false negative, and refuses to prune at all
  when pruning would be unsound.
"""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chord.hashing import hash_terms_seeded
from repro.net.sizes import size_of
from repro.net.wire import (
    BATCH_HEADER_BYTES,
    DIGEST_HEADER_BYTES,
    JoinDigest,
    SolutionBatch,
    as_solution_set,
    encode_solutions,
    mapping_sort_key,
)
from repro.rdf import IRI, BlankNode, Literal, Variable
from repro.sparql.solutions import SolutionMapping

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

LONG = IRI("http://example.org/a/rather/long/shared/resource#anchor-term")


def repetitive(n=50):
    """n rows all sharing one long term — the dictionary's best case."""
    return {
        SolutionMapping({X: LONG, Y: IRI(f"http://example.org/i{i}")})
        for i in range(n)
    }


def unique_rows(n=5):
    """Rows with no term repetition — the dictionary's worst case."""
    return {
        SolutionMapping({X: IRI(f"http://a.example/{i}"),
                         Y: Literal(f"label {i}")})
        for i in range(n)
    }


def plain_size(solutions):
    """The original wire charge for a shipped solution set."""
    return size_of(sorted(set(solutions), key=mapping_sort_key))


# ------------------------------------------------------ reference codec


def _index_width(count):
    if count <= 0xFF:
        return 1
    if count <= 0xFFFF:
        return 2
    return 4


def reference_encode(solutions):
    """The term-table / index-pair codec whose size ``SolutionBatch``
    charges: variables and terms tabled once in first-appearance order
    over the canonically sorted rows, each row a tuple of (variable
    index, term index) pairs. Returns (variables, terms, rows, mode,
    wire size)."""
    ordered = sorted(set(solutions), key=mapping_sort_key)
    var_index, term_index = {}, {}
    rows = []
    naive = 8
    for mu in ordered:
        naive += size_of(mu) + 2
        row = []
        for var, term in mu.items():
            vi = var_index.setdefault(var, len(var_index))
            ti = term_index.setdefault(term, len(term_index))
            row.append((vi, ti))
        rows.append(tuple(row))
    npairs = sum(len(row) for row in rows)
    dict_size = (
        8 + sum(size_of(v) + 2 for v in var_index)
        + 8 + sum(size_of(t) + 2 for t in term_index)
        + 8 + len(rows) * 2
        + npairs * (_index_width(len(var_index)) + _index_width(len(term_index)))
    )
    mode = "dict" if dict_size <= naive else "plain"
    wire = BATCH_HEADER_BYTES + min(dict_size, naive)
    return tuple(var_index), tuple(term_index), tuple(rows), mode, wire


XSD_INT = IRI("http://www.w3.org/2001/XMLSchema#integer")

VARS = [Variable(name) for name in ("x", "y", "zed", "a_long_variable_name")]

TERMS = st.one_of(
    st.integers(0, 60).map(lambda i: IRI(f"http://h.example/r{i}")),
    st.tuples(st.integers(0, 30), st.sampled_from([None, "en", "de-ch"]))
      .map(lambda p: Literal(f"v{p[0]}", language=p[1])),
    st.integers(0, 20).map(lambda i: Literal(str(i), datatype=XSD_INT)),
    st.integers(0, 20).map(lambda i: BlankNode(f"b{i}")),
)

MAPPINGS = st.dictionaries(st.sampled_from(VARS), TERMS, max_size=4).map(
    SolutionMapping)


def wide_rows(n):
    """n rows with 2n distinct terms: past 255, term indices take 2 bytes."""
    return [SolutionMapping({X: IRI(f"http://w.example/{i}"),
                             Y: Literal(f"wide {i}")}) for i in range(n)]


SOLUTION_LISTS = st.one_of(
    st.lists(MAPPINGS, max_size=40),
    st.tuples(st.integers(128, 200), st.lists(MAPPINGS, max_size=5))
      .map(lambda p: wide_rows(p[0]) + p[1]),
)


@settings(max_examples=150, deadline=None)
@given(rows=SOLUTION_LISTS, data=st.data())
@example(rows=[], data=None)
@example(rows=[SolutionMapping()], data=None)
@example(rows=wide_rows(130) + [SolutionMapping(), SolutionMapping({Z: LONG})],
         data=None)
def test_batch_charges_the_reference_codec_exactly(rows, data):
    *_, mode, wire = reference_encode(rows)
    batch = SolutionBatch.encode(rows)
    assert batch.wire_size() == wire
    assert size_of(batch) == wire
    assert batch.mode == mode
    assert len(batch) == len(set(rows))
    assert batch.decode() == set(rows)
    shuffled = list(reversed(rows)) if data is None else data.draw(
        st.permutations(rows))
    again = SolutionBatch.encode(shuffled)
    assert (again.wire_size(), again.mode) == (wire, mode)
    assert again.decode() == set(rows)


def test_reference_codec_reaches_two_byte_term_indices():
    # The explicit example above must exercise the wider index path.
    _, terms, _, _, wire = reference_encode(wide_rows(130))
    assert len(terms) > 0xFF
    assert SolutionBatch.encode(wide_rows(130)).wire_size() == wire


class TestSolutionBatch:
    @pytest.mark.parametrize("solutions", [
        set(), {SolutionMapping({X: LONG})}, unique_rows(), repetitive(),
        {SolutionMapping()},  # the empty mapping is a valid row
    ], ids=["empty", "single", "unique", "repetitive", "empty-mapping"])
    def test_round_trip(self, solutions):
        batch = SolutionBatch.encode(solutions)
        assert batch.decode() == set(solutions)
        assert len(batch) == len(set(solutions))

    @pytest.mark.parametrize("solutions", [
        set(), unique_rows(), repetitive(),
    ], ids=["empty", "unique", "repetitive"])
    def test_never_larger_than_plain_plus_header(self, solutions):
        batch = SolutionBatch.encode(solutions)
        assert batch.wire_size() <= plain_size(solutions) + BATCH_HEADER_BYTES

    def test_deterministic_across_input_orders(self):
        rows = sorted(repetitive(), key=mapping_sort_key)
        a = SolutionBatch.encode(rows)
        b = SolutionBatch.encode(list(reversed(rows)))
        assert size_of(a) == size_of(b) == reference_encode(rows)[4]
        assert a.mode == b.mode
        assert a.decode() == b.decode() == set(rows)

    def test_plain_encoding_charges_repeats_in_full(self):
        # The regression this PR fixes the cost of: 50 rows sharing LONG
        # pay size_of(LONG) 50 times on the plain wire...
        sols = repetitive(50)
        assert plain_size(sols) >= 50 * size_of(LONG)
        # ...while the dictionary batch tables the term once.
        batch = SolutionBatch.encode(sols)
        assert batch.mode == "dict"
        assert batch.wire_size() < 0.6 * plain_size(sols)

    def test_falls_back_to_plain_mode_when_dictionary_loses(self):
        batch = SolutionBatch.encode({SolutionMapping({X: IRI("http://e/1")})})
        assert batch.mode == "plain"
        assert batch.decode() == {SolutionMapping({X: IRI("http://e/1")})}

    def test_size_of_integration_is_exactly_additive(self):
        batch = SolutionBatch.encode(repetitive())
        assert size_of(batch) == batch.wire_size()
        # Embedded in a payload dict, the batch adds exactly its wire size
        # (plus the dict's own per-entry overhead) — nothing hidden.
        with_batch = size_of({"corr": "c", "data": batch})
        without = size_of({"corr": "c"})
        per_entry = (size_of({"corr": "c", "x": 0})
                     - without - size_of("x") - size_of(0))
        assert with_batch == (without + size_of("data")
                              + batch.wire_size() + per_entry)

    def test_encode_solutions_off_is_the_original_wire_format(self):
        sols = unique_rows()
        plain = encode_solutions(sols, False)
        assert size_of(plain) == plain_size(sols)
        assert set(plain) == sols
        assert as_solution_set(plain) == sols
        assert as_solution_set(encode_solutions(sols, True)) == sols

    @pytest.mark.parametrize("encode", [True, False], ids=["batch", "plain"])
    def test_survives_pickling_for_the_multiprocess_backend(self, encode):
        # net/mp.py pickles payloads as they are; schemas and terms
        # re-intern on load and the shipped charge is unchanged.
        sols = repetitive() | unique_rows() | {SolutionMapping()}
        shipped = encode_solutions(sols, encode)
        loaded = pickle.loads(pickle.dumps(shipped))
        assert size_of(loaded) == size_of(shipped)
        assert as_solution_set(loaded) == sols
        if encode:
            assert loaded.wire_size() == shipped.wire_size()
            assert loaded.mode == shipped.mode


def key_rows(n, var=X):
    return {SolutionMapping({var: IRI(f"http://k.example/{i}"), Y: LONG})
            for i in range(n)}


class TestJoinDigest:
    def test_exact_mode_filters_exactly(self):
        resident = key_rows(10)
        digest = JoinDigest.build(resident, [X], exact_threshold=64)
        assert digest.mode == "exact" and digest.prunable
        member = SolutionMapping({X: IRI("http://k.example/3"), Z: LONG})
        stranger = SolutionMapping({X: IRI("http://k.example/99")})
        assert digest.allows(member)
        assert not digest.allows(stranger)
        assert digest.filter({member, stranger}) == {member}

    def test_bloom_mode_has_no_false_negatives(self):
        resident = key_rows(200)
        digest = JoinDigest.build(resident, [X], exact_threshold=64,
                                  bloom_bits=10)
        assert digest.mode == "bloom" and digest.prunable
        for mu in resident:
            assert digest.allows(mu)

    def test_bloom_mode_prunes_most_strangers(self):
        digest = JoinDigest.build(key_rows(200), [X], exact_threshold=64,
                                  bloom_bits=10)
        strangers = [SolutionMapping({X: IRI(f"http://other.example/{i}")})
                     for i in range(100)]
        rejected = sum(1 for mu in strangers if not digest.allows(mu))
        assert rejected >= 80  # ~1% theoretical false-positive rate

    def test_bloom_is_smaller_than_exact_would_be(self):
        resident = key_rows(200)
        bloom = JoinDigest.build(resident, [X], exact_threshold=64)
        exact = JoinDigest.build(resident, [X], exact_threshold=10_000)
        assert bloom.mode == "bloom" and exact.mode == "exact"
        assert bloom.wire_size() < exact.wire_size()
        assert bloom.wire_size() == (
            DIGEST_HEADER_BYTES + size_of(X) + 2 + bloom.nbits // 8
        )

    def test_unbound_resident_row_disables_pruning(self):
        resident = key_rows(5) | {SolutionMapping({Y: LONG})}  # no X binding
        digest = JoinDigest.build(resident, [X])
        assert not digest.prunable
        assert digest.allows(SolutionMapping({X: IRI("http://nowhere/")}))

    def test_empty_variable_list_disables_pruning(self):
        digest = JoinDigest.build(key_rows(5), [])
        assert not digest.prunable

    def test_candidate_missing_a_digest_var_is_admitted(self):
        digest = JoinDigest.build(key_rows(5), [X])
        assert digest.allows(SolutionMapping({Z: LONG}))

    def test_deterministic(self):
        rows = sorted(key_rows(200), key=mapping_sort_key)
        a = JoinDigest.build(rows, [X], exact_threshold=64)
        b = JoinDigest.build(list(reversed(rows)), [X], exact_threshold=64)
        assert (a.bits, a.nbits, a.nhashes, a.wire_size()) == \
               (b.bits, b.nbits, b.nhashes, b.wire_size())

    def test_size_of_integration(self):
        digest = JoinDigest.build(key_rows(5), [X])
        assert size_of(digest) == digest.wire_size()


class TestSeededHashing:
    def test_deterministic(self):
        terms = (IRI("http://a/"), Literal("x"))
        assert hash_terms_seeded(terms, 3, 1024) == \
               hash_terms_seeded(terms, 3, 1024)

    def test_seed_changes_position(self):
        terms = (IRI("http://a/"),)
        values = {hash_terms_seeded(terms, seed, 1 << 20) for seed in range(8)}
        assert len(values) > 1

    def test_range(self):
        for seed in range(4):
            assert 0 <= hash_terms_seeded((LONG,), seed, 97) < 97
