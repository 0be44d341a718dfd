"""Container validation and JSON round-trip tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from vlodtta.adapt import EpisodeConfig, adapt_episode
from vlodtta.data import (
    SCENE_JSON_KEYS,
    GroundTruth,
    PromptPool,
    ProposalSet,
    scene_from_json,
    scene_to_json,
)
from vlodtta.geometry import Box
from vlodtta.scoring import NearZeroRow, NonFiniteRow, normalize_rows


def _sample_scene(seed=0, n=7, k=3, t=4, d=5):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 50, size=(n, 2))
    wh = rng.uniform(1, 20, size=(n, 2))
    proposals = ProposalSet(
        boxes=np.concatenate([xy, xy + wh], axis=1),
        features=normalize_rows(rng.normal(size=(n, d))),
        class_embeddings=normalize_rows(rng.normal(size=(k, d))),
    )
    pool = PromptPool(normalize_rows(rng.normal(size=(k, t, d))))
    gts = [GroundTruth(Box(0, 0, 10, 10), 1), GroundTruth(Box(5, 5, 30, 30), 0)]
    return proposals, pool, gts


def test_proposal_set_properties():
    proposals, _, _ = _sample_scene()
    assert proposals.n == 7
    assert proposals.d == 5
    assert proposals.num_classes == 3


def test_proposal_set_allows_empty():
    _, pool, _ = _sample_scene()
    empty = ProposalSet(
        boxes=np.zeros((0, 4)),
        features=np.zeros((0, 5)),
        class_embeddings=normalize_rows(np.random.default_rng(1).normal(size=(3, 5))),
    )
    assert empty.n == 0


def test_proposal_set_rejects_bad_shapes():
    rng = np.random.default_rng(2)
    emb = normalize_rows(rng.normal(size=(3, 5)))
    with pytest.raises(ValueError):
        ProposalSet(np.zeros((2, 3)), rng.normal(size=(2, 5)), emb)
    with pytest.raises(ValueError):
        ProposalSet(np.array([[0, 0, 1, 1]]), rng.normal(size=(2, 5)), emb)
    with pytest.raises(ValueError):  # x2 <= x1
        ProposalSet(np.array([[5, 0, 1, 1.0]]), rng.normal(size=(1, 5)), emb)
    with pytest.raises(ValueError):  # nan feature
        ProposalSet(np.array([[0, 0, 1, 1.0]]), np.array([[np.nan] * 5]), emb)


def test_prompt_pool_rejects_small_dims():
    with pytest.raises(ValueError):
        PromptPool(np.ones((1, 4, 8)))
    with pytest.raises(ValueError):
        PromptPool(np.ones((3, 0, 8)))
    with pytest.raises(ValueError):
        PromptPool(np.ones((3, 4)))


# a zero row cannot be normalized, and neither can a finite one whose squared norm overflows
CANNOT_NORMALIZE = ((0.0, NearZeroRow), (1e200, NonFiniteRow))


def test_proposal_set_rejects_zero_feature_row():
    proposals, _, _ = _sample_scene()
    for value, error in CANNOT_NORMALIZE:
        features = proposals.features.copy()
        features[[3, 5]] = value
        with pytest.raises(error, match=r"^feature row 3 "):
            ProposalSet(proposals.boxes, features, proposals.class_embeddings)


def test_proposal_set_rejects_zero_class_embedding():
    proposals, _, _ = _sample_scene()
    for value, error in CANNOT_NORMALIZE:
        emb = proposals.class_embeddings.copy()
        emb[2] = value
        with pytest.raises(error, match=r"^class 2 embedding "):
            ProposalSet(proposals.boxes, proposals.features, emb)


def test_prompt_pool_rejects_zero_prompt_row():
    _, pool, _ = _sample_scene()
    for (value, error), prompt in zip(CANNOT_NORMALIZE, (3, 2)):
        emb = pool.embeddings.copy()
        emb[1, prompt] = value
        emb[2, 0] = value
        with pytest.raises(error, match=rf"^class 1 prompt {prompt} "):
            PromptPool(emb)
        assert issubclass(error, ValueError)


def test_ground_truth_rejects_negative_class():
    with pytest.raises(ValueError, match="^class_id must be >= 0"):
        GroundTruth(Box(0, 0, 1, 1), -2)


@pytest.mark.parametrize("class_id", [1.7, True, "1"])
def test_ground_truth_rejects_a_class_that_is_not_an_int(class_id):
    with pytest.raises(ValueError, match="^class_id must be an integer"):
        GroundTruth(Box(0, 0, 1, 1), class_id)


@pytest.mark.parametrize(
    "box", [[0, 0, 1, 1], (0.0, 0.0, 1.0, 1.0), np.array([0.0, 0.0, 1.0, 1.0])], ids=["list", "tuple", "array"]
)
def test_ground_truth_rejects_a_box_that_is_not_a_box(box):
    with pytest.raises(ValueError, match="^box must be a Box, not "):
        GroundTruth(box, 0)


def test_round_trip_preserves_everything():
    proposals, pool, gts = _sample_scene(seed=5)
    doc = scene_to_json(proposals, pool, gts)
    assert set(doc) == set(SCENE_JSON_KEYS)
    # must survive an actual serialization pass, not just dict juggling
    doc = json.loads(json.dumps(doc))
    p2, pool2, gts2 = scene_from_json(doc)
    np.testing.assert_array_equal(p2.boxes, proposals.boxes)
    np.testing.assert_array_equal(p2.features, proposals.features)
    np.testing.assert_array_equal(p2.class_embeddings, proposals.class_embeddings)
    np.testing.assert_array_equal(pool2.embeddings, pool.embeddings)
    assert gts2 == gts


def test_to_json_rejects_what_from_json_would_refuse():
    # a ground truth of a class the scene does not have: the writer raises the reader's error
    proposals, pool, gts = _sample_scene(k=3)
    bad = [*gts, GroundTruth(Box(0, 0, 1, 1), 3)]
    with pytest.raises(ValueError, match=r"^class_id must be in \[0, 2\]: 3$"):
        scene_to_json(proposals, pool, bad)
    doc = json.loads(json.dumps(scene_to_json(proposals, pool, gts)))
    doc["gt"][0]["class_id"] = 3
    with pytest.raises(ValueError, match=r"^class_id must be in \[0, 2\]: 3$"):
        scene_from_json(doc)
    # every class the scene has round-trips
    edge = [GroundTruth(Box(0, 0, 1, 1), 0), GroundTruth(Box(0, 0, 1, 1), 2)]
    assert scene_from_json(json.loads(json.dumps(scene_to_json(proposals, pool, edge))))[2] == edge


def test_from_json_rejects_missing_and_unknown_keys():
    proposals, pool, gts = _sample_scene()
    doc = scene_to_json(proposals, pool, gts)
    broken = dict(doc)
    del broken["features"]
    with pytest.raises(ValueError, match="features"):
        scene_from_json(broken)
    extra = dict(doc)
    extra["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        scene_from_json(extra)


def test_from_json_rejects_inconsistent_dims():
    proposals, pool, gts = _sample_scene()
    doc = scene_to_json(proposals, pool, gts)
    wrong = json.loads(json.dumps(doc))
    wrong["d"] = 99
    with pytest.raises(ValueError):
        scene_from_json(wrong)


def test_from_json_rejects_malformed_gt():
    proposals, pool, gts = _sample_scene()
    doc = json.loads(json.dumps(scene_to_json(proposals, pool, gts)))
    doc["gt"][0]["surprise"] = True
    with pytest.raises(ValueError):
        scene_from_json(doc)


def test_from_json_round_trips_a_scene_without_proposals():
    proposals, pool, gts = _sample_scene(n=0)
    doc = json.loads(json.dumps(scene_to_json(proposals, pool, gts)))
    assert doc["boxes"] == [] and doc["features"] == []
    p2, _, _ = scene_from_json(doc)
    assert p2.boxes.shape == (0, 4) and p2.features.shape == (0, 5)


def _set(path, value):
    """A scene-document edit: set the value at a key path such as ("gt", 0, "class_id")."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_set(("d",), 5.9), "d must be an integer"),
        (_set(("gt", 0, "class_id"), 1.7), "class_id must be an integer"),
        (_set(("gt", 0, "class_id"), True), "class_id must be an integer"),
        (_set(("gt", 0, "class_id"), 3), r"class_id must be in \[0, 2\]"),
        (lambda doc: doc.update(boxes=sum(doc["boxes"], [])), "boxes must be"),
        (_set(("gt", 0, "box"), [0, 0, 10, 10, 10]), "4 coordinates"),
        (lambda doc: 5, "scene document must be a JSON object, not int"),
        (lambda doc: [doc], "scene document must be a JSON object, not list"),
        (_set(("gt",), 5), "gt must be a list of objects, not int"),
        (_set(("gt",), "ab"), "gt must be a list of objects, not str"),
        (_set(("gt",), [5]), "gt entry must be an object: 5"),
        (_set(("gt",), [None]), "gt entry must be an object: None"),
        (_set(("gt", 0, "box"), {"x1": 0}), "gt box must be numbers"),
    ],
    ids=[
        "float d", "float class_id", "bool class_id", "class_id >= K", "flat boxes", "5-coordinate box",
        "int document", "list document", "int gt", "str gt", "int gt entry", "null gt entry", "object gt box",
    ],
)
def test_from_json_rejects_values_it_used_to_coerce(edit, fragment):
    proposals, pool, gts = _sample_scene()
    doc = json.loads(json.dumps(scene_to_json(proposals, pool, gts)))
    doc = edit(doc) or doc  # an edit that returns a value replaces the whole document
    with pytest.raises(ValueError, match=fragment):
        scene_from_json(doc)


def _with(proposals, **fields):
    return {"boxes": proposals.boxes, "features": proposals.features,
            "class_embeddings": proposals.class_embeddings, **fields}


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("boxes", lambda a: a.tolist(), "boxes must be an integer or float array, not list"),
        ("features", lambda a: a.tolist(), "features must be an integer or float array, not list"),
        ("class_embeddings", lambda a: a.astype(str), "class_embeddings must be an integer or float array, not <U"),
        ("features", lambda a: a.astype(complex), "features must be an integer or float array, not complex128"),
    ],
    ids=["list boxes", "list features", "str class embeddings", "complex features"],
)
def test_proposal_set_rejects_fields_that_are_not_real_arrays(field, value, fragment):
    proposals, _, _ = _sample_scene()
    bad = _with(proposals, **{field: value(getattr(proposals, field))})
    with pytest.raises(ValueError, match=fragment):
        ProposalSet(**bad)


@pytest.mark.parametrize(
    "value, fragment",
    [
        (lambda a: a.tolist(), "embeddings must be an integer or float array, not list"),
        (lambda a: a.astype(str), "embeddings must be an integer or float array, not <U"),
        (lambda a: a.astype(complex), "embeddings must be an integer or float array, not complex128"),
    ],
    ids=["list", "str", "complex"],
)
def test_prompt_pool_rejects_embeddings_that_are_not_a_real_array(value, fragment):
    _, pool, _ = _sample_scene()
    with pytest.raises(ValueError, match=fragment):
        PromptPool(value(pool.embeddings))


@pytest.mark.parametrize("scale", [1, 10**9])
def test_integer_features_give_the_bits_of_their_float_copy(scale):
    # int64 squares wrap past 2**63: at 1e9 with d = 16 a squared norm of 5.3e19 read -2.3e18,
    # whose NaN norm passed the zero-row check and failed the episode later as a zero row
    rng = np.random.default_rng(7)
    features = rng.integers(-scale, scale, size=(6, 16), endpoint=True)
    features[0] = int(1.82 * scale)
    xy = rng.uniform(0, 50, size=(6, 2))
    boxes = np.concatenate([xy, xy + rng.uniform(1, 20, size=(6, 2))], axis=1)
    class_embeddings = rng.normal(size=(3, 16))
    ints = ProposalSet(boxes, features, class_embeddings)
    floats = ProposalSet(boxes, features.astype(float), class_embeddings)
    assert ints.feature_sq.dtype == np.float64
    assert ints.feature_sq.tobytes() == floats.feature_sq.tobytes()
    pool = PromptPool(rng.normal(size=(3, 4, 16)))
    cfg = EpisodeConfig(reduction=4, rho=0.5)
    assert adapt_episode(ints, pool, cfg)[1] == adapt_episode(floats, pool, cfg)[1]


def test_integer_arrays_still_make_a_proposal_set_and_pool():
    proposals = ProposalSet(
        np.array([[0, 0, 2, 2], [1, 1, 3, 4]]), np.array([[1, 0], [0, 2]]), np.array([[1, 0], [0, 1]], dtype=np.int32)
    )
    assert proposals.n == 2 and proposals.d == 2
    pool = PromptPool(np.array([[[1, 0], [1, 1]], [[0, 1], [2, 1]]], dtype=np.uint8))
    assert pool.d == 2
    # both hold float64, and a float64 array is held as it is
    held = (proposals.boxes, proposals.features, proposals.class_embeddings, pool.embeddings)
    assert all(a.dtype == np.float64 for a in held)
    assert PromptPool(pool.embeddings).embeddings is pool.embeddings
    # the episode scores them as floats: its prompt gather is shifted in place
    cfg = EpisodeConfig(reduction=2, rho=0.5)
    floats = ProposalSet(*(a.astype(float) for a in (proposals.boxes, proposals.features, proposals.class_embeddings)))
    want = adapt_episode(floats, PromptPool(pool.embeddings.astype(float)), cfg)[1]
    assert adapt_episode(proposals, pool, cfg)[1] == want
