import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpkernel.gate import (
    CATEGORICAL,
    NUMERIC,
    PAD_TOKEN,
    Attribute,
    ExpertSet,
    GatingNet,
    LinearExpert,
    Schema,
    UnsupportedQuery,
    encode_query,
    gate,
    parse_predicates,
    sliced_predict,
    sparse_softmax,
)


def demo_schema():
    return Schema([
        Attribute("gender", CATEGORICAL, vocabulary=("Male", "Female")),
        Attribute("age", NUMERIC, bucket_edges=(18.0, 30.0, 45.0, 65.0)),
        Attribute("region", CATEGORICAL, vocabulary=("north", "south", "east")),
    ])


# -- encoding -----------------------------------------------------------------

def test_no_predicates_all_padding():
    schema = demo_schema()
    enc = encode_query([], schema)
    assert enc.tolist() == [PAD_TOKEN] * schema.n_attrs


def test_example_encoding_gender_and_age():
    schema = demo_schema()
    enc = encode_query([("gender", "Male"), ("age", 24)], schema)
    assert enc[0] == schema.token("gender", "Male")
    assert enc[1] == schema.token("age", 24)
    assert enc[2] == PAD_TOKEN
    # categorical tokens are direct vocabulary positions
    assert schema.token("gender", "Male") == 1
    assert schema.token("gender", "Female") == 2


def test_values_in_same_bucket_encode_identically():
    schema = demo_schema()
    assert (encode_query([("age", 24)], schema)
            == encode_query([("age", 25)], schema)).all()
    assert (encode_query([("age", 24)], schema)
            != encode_query([("age", 31)], schema)).any()


def test_range_predicate_uses_midpoint_bucket():
    schema = demo_schema()
    assert (encode_query([("age", (20, 28))], schema)
            == encode_query([("age", 24)], schema)).all()


def test_duplicate_attribute_rejected():
    schema = demo_schema()
    with pytest.raises(UnsupportedQuery):
        encode_query([("age", 24), ("age", 25)], schema)


def test_unknown_attribute_and_value_rejected():
    schema = demo_schema()
    with pytest.raises(UnsupportedQuery):
        encode_query([("height", 180)], schema)
    with pytest.raises(UnsupportedQuery):
        encode_query([("gender", "Other")], schema)


def test_every_conjunctive_predicate_has_one_encoding():
    schema = demo_schema()
    seen = set()
    choices = {
        "gender": [None, "Male", "Female"],
        "age": [None, 10, 24, 40, 70],
        "region": [None, "north", "south", "east"],
    }
    import itertools

    for combo in itertools.product(*choices.values()):
        predicates = [(k, v) for k, v in zip(choices, combo) if v is not None]
        enc = tuple(encode_query(predicates, schema).tolist())
        assert len(enc) == schema.n_attrs
        seen.add(enc)
    # these age probes all land in distinct buckets, so every combination
    # of (gender, age, region) choices yields a distinct encoding
    assert len(seen) == 3 * 5 * 4


def test_parse_predicates_strings():
    pairs = parse_predicates("gender = Male AND age = 24")
    assert pairs == [("gender", "Male"), ("age", "24")]
    pairs = parse_predicates("age between 20 to 30")
    assert pairs == [("age", (20.0, 30.0))]
    assert parse_predicates("") == []
    with pytest.raises(UnsupportedQuery):
        parse_predicates("gender = Male OR age = 24")
    with pytest.raises(UnsupportedQuery):
        parse_predicates("gender Male")


def test_parse_predicates_slices_clauses_where_lowercasing_changes_length():
    # "İ".lower() is two characters long, so offsets found in lowered text
    # would cut the original one character late
    assert parse_predicates("city = İstanbul AND age = 3") == [
        ("city", "İstanbul"), ("age", "3")]
    assert parse_predicates("city = İİ and age BETWEEN 1 To 3") == [
        ("city", "İİ"), ("age", (1.0, 3.0))]


# -- sparse softmax ---------------------------------------------------------------

def test_single_expert_gets_full_weight():
    assert sparse_softmax(np.array([3.7]), k_max=1, threshold=0.0).tolist() == [1.0]


def test_equal_logits_uniform():
    w = sparse_softmax(np.zeros(4), k_max=4, threshold=0.0)
    assert np.allclose(w, 0.25)


def test_threshold_zeroes_and_renormalizes():
    # softmax of [5,0,0,0] is ~[0.980, 0.0066, 0.0066, 0.0066]; the small
    # entries fall below 0.2 and the max renormalizes to exactly one
    w = sparse_softmax(np.array([5.0, 0.0, 0.0, 0.0]), k_max=4, threshold=0.2)
    assert w[0] == pytest.approx(1.0)
    assert w[1:].tolist() == [0.0, 0.0, 0.0]


def test_top_k_limit_enforced():
    w = sparse_softmax(np.array([4.0, 3.0, 2.0, 1.0]), k_max=2, threshold=0.0)
    assert (w > 0).sum() == 2
    assert w[0] > w[1] > 0
    assert w.sum() == pytest.approx(1.0)


def test_all_below_threshold_falls_back_to_argmax():
    w = sparse_softmax(np.array([0.1, 0.2, 0.15]), k_max=3, threshold=0.9)
    assert w.tolist() == [0.0, 1.0, 0.0]


def test_tie_at_k_limit_keeps_lower_index():
    w = sparse_softmax(np.array([1.0, 1.0, 1.0]), k_max=2, threshold=0.0)
    assert (w > 0).tolist() == [True, True, False]


@settings(max_examples=100, deadline=None)
@given(
    logits=st.lists(st.floats(-30, 30), min_size=1, max_size=8),
    k_max=st.integers(1, 8),
    threshold=st.floats(0.0, 0.8),
)
def test_weights_always_on_simplex_and_sparse(logits, k_max, threshold):
    w = sparse_softmax(np.array(logits), k_max, threshold)
    assert (w >= 0).all()
    assert w.sum() == pytest.approx(1.0)
    assert (w > 0).sum() <= k_max


# -- gating net ----------------------------------------------------------------

def test_gate_is_pure():
    schema = demo_schema()
    net = GatingNet.random(schema, n_experts=4, seed=1)
    enc = encode_query([("gender", "Female")], schema)
    first = gate(enc, net)
    for _ in range(5):
        assert (gate(enc, net) == first).all()


def test_zero_net_gives_uniform_weights():
    schema = demo_schema()
    net = GatingNet.random(schema, n_experts=5, k_max=5, threshold=0.0, seed=0)
    net.w1[:] = 0.0
    net.b1[:] = 0.0
    net.w2[:] = 0.0
    net.b2[:] = 0.0
    w = gate(encode_query([("age", 24)], schema), net)
    assert np.allclose(w, 0.2)


def test_hand_built_net_routes_token_to_expert():
    # one-hot embeddings feed a picker matrix so the Male token drives
    # expert 0's logit sky-high; only that expert stays active
    schema = Schema([Attribute("gender", CATEGORICAL, vocabulary=("Male", "Female"))])
    n_tokens = schema.n_tokens
    embed = np.eye(n_tokens)
    w1 = np.eye(n_tokens)
    b1 = np.zeros(n_tokens)
    w2 = np.zeros((n_tokens, 2))
    w2[schema.token("gender", "Male"), 0] = 50.0
    w2[schema.token("gender", "Female"), 1] = 50.0
    net = GatingNet(embed, w1, b1, w2, np.zeros(2), k_max=2, threshold=0.05)

    w_male = gate(encode_query([("gender", "Male")], schema), net)
    assert w_male[0] == pytest.approx(1.0)
    assert w_male[1] == 0.0
    w_female = gate(encode_query([("gender", "Female")], schema), net)
    assert w_female[1] == pytest.approx(1.0)


def test_shape_mismatch_rejected():
    schema = demo_schema()
    net = GatingNet.random(schema, n_experts=3, seed=2)
    with pytest.raises(ValueError):
        net.logits(np.zeros(99, dtype=np.int64))


def test_net_roundtrip_through_file(tmp_path):
    schema = demo_schema()
    net = GatingNet.random(schema, n_experts=4, k_max=3, threshold=0.1, seed=9)
    path = tmp_path / "net.npz"
    net.save(path)
    loaded = GatingNet.load(path)
    enc = encode_query([("region", "south"), ("age", 50)], schema)
    assert (gate(enc, loaded) == gate(enc, net)).all()
    assert loaded.k_max == 3 and loaded.threshold == 0.1


# -- sliced prediction --------------------------------------------------------------

def test_one_hot_weights_evaluate_single_expert():
    experts = ExpertSet.random_linear(4, 3, seed=5)
    x = np.array([1.0, 2.0, 3.0])
    weights = np.array([0.0, 1.0, 0.0, 0.0])
    out = sliced_predict(weights, experts, x)
    assert out == pytest.approx(experts.experts[1].evaluate(x))
    # only the sliced call counts; the direct .evaluate above bypasses the set
    assert experts.eval_counts == [0, 1, 0, 0]


def test_uniform_weights_over_identical_experts():
    expert = LinearExpert(np.array([2.0, -1.0]), 0.5)
    experts = ExpertSet([expert, expert, expert])
    x = np.array([1.0, 1.0])
    assert sliced_predict(np.full(3, 1 / 3), experts, x) == pytest.approx(
        expert.evaluate(x))


def test_sliced_equals_dense_mixture():
    experts = ExpertSet.random_linear(6, 4, seed=7)
    schema = demo_schema()
    net = GatingNet.random(schema, n_experts=6, k_max=3, threshold=0.05, seed=8)
    from frpkernel import rng as rnglib

    gen = rnglib.derive(3, "gate-test")
    for _ in range(200):
        predicates = []
        if gen.random() < 0.7:
            predicates.append(("age", float(gen.uniform(0, 80))))
        if gen.random() < 0.5:
            predicates.append(("gender", ["Male", "Female"][int(gen.integers(2))]))
        enc = encode_query(predicates, schema)
        weights = gate(enc, net)
        x = gen.normal(0, 1, 4)
        dense = sum(w * experts.experts[i].evaluate(x)
                    for i, w in enumerate(weights))
        assert sliced_predict(weights, experts, x) == pytest.approx(dense, abs=1e-9)


def test_zero_weight_experts_never_evaluated():
    experts = ExpertSet.random_linear(5, 2, seed=11)
    weights = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
    for _ in range(7):
        sliced_predict(weights, experts, np.array([1.0, -1.0]))
    assert experts.eval_counts == [7, 0, 7, 0, 0]
