"""Predicate-conditioned sparse expert gating.

A conjunctive predicate set is encoded as one token per schema attribute
(token 0 reserved for "no predicate"), categorical values map straight to
vocabulary tokens and numeric values to their bucket. A small two-layer
network turns the token vector into per-expert logits, and a sparse softmax
zeroes low-probability experts and renormalizes, so prediction only has to
evaluate the experts that survived.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import rng as rnglib

PAD_TOKEN = 0

CATEGORICAL = "categorical"
NUMERIC = "numeric"

# keywords match case-insensitively against the original text, so slices
# stay aligned however case mapping changes a string's length
_OR = re.compile(r"(?:^| )or(?: |$)", re.IGNORECASE)
_AND = re.compile(r" and ", re.IGNORECASE)
_BETWEEN = re.compile(r" between ", re.IGNORECASE)
_RANGE = re.compile(r"(.*?) between (.*?) to (.*)", re.IGNORECASE | re.DOTALL)


class UnsupportedQuery(ValueError):
    """Predicate set outside the conjunctive one-per-attribute fragment."""


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str
    vocabulary: tuple[str, ...] = ()
    bucket_edges: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == CATEGORICAL:
            if not self.vocabulary:
                raise ValueError(f"{self.name}: empty vocabulary")
        elif self.kind == NUMERIC:
            edges = self.bucket_edges
            if any(a >= b for a, b in zip(edges, edges[1:])):
                raise ValueError(f"{self.name}: bucket edges must increase")
        else:
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")

    @property
    def token_count(self) -> int:
        if self.kind == CATEGORICAL:
            return len(self.vocabulary)
        return len(self.bucket_edges) + 1

    def local_token(self, value) -> int:
        if self.kind == CATEGORICAL:
            try:
                return self.vocabulary.index(str(value))
            except ValueError:
                raise UnsupportedQuery(
                    f"{value!r} not in vocabulary of {self.name}") from None
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise UnsupportedQuery(f"{self.name} expects a number, got {value!r}") from None
        return bisect_right(self.bucket_edges, number)


class Schema:
    def __init__(self, attributes: list[Attribute]):
        if len({a.name for a in attributes}) != len(attributes):
            raise ValueError("duplicate attribute names")
        self.attributes = list(attributes)
        self._index = {a.name: i for i, a in enumerate(attributes)}
        offsets = np.cumsum([0] + [a.token_count for a in attributes])
        self._offsets = offsets[:-1]
        self.n_tokens = 1 + int(offsets[-1])   # 1 reserved for padding

    @property
    def n_attrs(self) -> int:
        return len(self.attributes)

    def token(self, name: str, value) -> int:
        idx = self._index.get(name)
        if idx is None:
            raise UnsupportedQuery(f"unknown attribute {name!r}")
        return 1 + int(self._offsets[idx]) + self.attributes[idx].local_token(value)

    @classmethod
    def from_dict(cls, data: dict) -> "Schema":
        attrs = []
        for item in data["attributes"]:
            attrs.append(Attribute(
                item["name"], item["kind"],
                vocabulary=tuple(item.get("vocabulary", ())),
                bucket_edges=tuple(item.get("bucket_edges", ()))))
        return cls(attrs)


def encode_query(predicates, schema: Schema) -> np.ndarray:
    """Token-encode a conjunctive predicate set; absent attributes pad to 0.

    `predicates` is an iterable of (name, value) pairs, as `parse_predicates`
    returns them. A value is a scalar (equality) or a (lo, hi) range, which
    lands in the bucket of its midpoint. Duplicate attributes are rejected.
    """
    pairs = list(predicates)
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise UnsupportedQuery("at most one predicate per attribute")

    encoding = np.full(schema.n_attrs, PAD_TOKEN, dtype=np.int64)
    for name, value in pairs:
        if isinstance(value, tuple):
            if len(value) != 2:
                raise UnsupportedQuery(f"range for {name} must be (lo, hi)")
            value = (float(value[0]) + float(value[1])) / 2.0
        token = schema.token(name, value)   # raises for unknown attributes
        encoding[schema._index[name]] = token
    return encoding


def parse_predicates(text: str) -> list[tuple[str, object]]:
    """Parse 'a = v AND b between LO to HI' into (name, value) pairs.

    Ranges take 'between LO to HI' rather than SQL's 'between LO and HI'
    because clauses are split on AND; disjunctions are rejected outright.
    """
    text = text.strip()
    if not text:
        return []
    if _OR.search(text):
        raise UnsupportedQuery("disjunctive predicates are unsupported")
    pairs: list[tuple[str, object]] = []
    for clause in _AND.split(text):
        clause = clause.strip()
        if not clause:
            raise UnsupportedQuery(f"empty clause in {text!r}")
        if "=" in clause:
            name, _, value = clause.partition("=")
            pairs.append((name.strip(), value.strip()))
        elif match := _RANGE.fullmatch(clause):
            name, lo, hi = match.groups()
            pairs.append((name.strip(), (float(lo), float(hi))))
        elif _BETWEEN.search(clause):
            raise UnsupportedQuery(f"range clause needs 'between LO to HI': {clause!r}")
        else:
            raise UnsupportedQuery(f"cannot parse clause {clause!r}")
    return pairs


def sparse_softmax(logits: np.ndarray, k_max: int, threshold: float) -> np.ndarray:
    """Softmax, zero entries below threshold or beyond the top k_max, renorm.

    If everything gets zeroed the single max-logit expert takes weight 1, so
    the result always sums to one.
    """
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1 or logits.size < 1:
        raise ValueError("logits must be a non-empty vector")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    z = logits - logits.max()
    probs = np.exp(z)
    probs /= probs.sum()

    weights = np.where(probs < threshold, 0.0, probs)
    if k_max < weights.size:
        order = np.argsort(-weights, kind="stable")   # ties keep lower index
        weights[order[k_max:]] = 0.0
    total = weights.sum()
    if total <= 0.0:
        out = np.zeros_like(weights)
        out[int(np.argmax(logits))] = 1.0
        return out
    return weights / total


@dataclass
class GatingNet:
    """Embedding + two dense layers + sparse softmax over K experts."""

    embeddings: np.ndarray    # (n_tokens, embed_dim)
    w1: np.ndarray            # (n_attrs * embed_dim, hidden)
    b1: np.ndarray
    w2: np.ndarray            # (hidden, n_experts)
    b2: np.ndarray
    k_max: int = 2
    threshold: float = 0.05

    def __post_init__(self):
        if self.w1.shape[1] != self.b1.shape[0] or self.w2.shape[1] != self.b2.shape[0]:
            raise ValueError("bias shapes do not match layer widths")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden widths of the two layers disagree")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    @property
    def n_experts(self) -> int:
        return self.w2.shape[1]

    def expected_attrs(self) -> int:
        return self.w1.shape[0] // self.embeddings.shape[1]

    def fits(self, schema: Schema) -> bool:
        """Whether every query encoded under `schema` is a valid input."""
        return (schema.n_attrs * self.embeddings.shape[1] == self.w1.shape[0]
                and self.embeddings.shape[0] >= schema.n_tokens)

    def logits(self, encoding: np.ndarray) -> np.ndarray:
        encoding = np.asarray(encoding)
        if (encoding.ndim != 1
                or encoding.size * self.embeddings.shape[1] != self.w1.shape[0]):
            raise ValueError(
                f"encoding of length {encoding.size} does not match "
                f"net input for {self.expected_attrs()} attributes")
        if encoding.min() < 0 or encoding.max() >= self.embeddings.shape[0]:
            raise ValueError("token id outside embedding table")
        x = self.embeddings[encoding].reshape(-1)
        hidden = np.maximum(x @ self.w1 + self.b1, 0.0)
        return hidden @ self.w2 + self.b2

    @classmethod
    def random(cls, schema: Schema, n_experts: int, embed_dim: int = 8,
               hidden_dim: int = 16, k_max: int = 2, threshold: float = 0.05,
               seed: int = 0) -> "GatingNet":
        gen = rnglib.derive(seed, "gating-net")
        scale = 1.0 / np.sqrt(embed_dim)
        return cls(
            embeddings=gen.normal(0.0, 1.0, (schema.n_tokens, embed_dim)),
            w1=gen.normal(0.0, scale, (schema.n_attrs * embed_dim, hidden_dim)),
            b1=np.zeros(hidden_dim),
            w2=gen.normal(0.0, scale, (hidden_dim, n_experts)),
            b2=np.zeros(n_experts),
            k_max=k_max,
            threshold=threshold,
        )

    def save(self, path) -> None:
        np.savez(path, embeddings=self.embeddings, w1=self.w1, b1=self.b1,
                 w2=self.w2, b2=self.b2, k_max=np.int64(self.k_max),
                 threshold=np.float64(self.threshold))

    @classmethod
    def load(cls, path) -> "GatingNet":
        data = np.load(path)
        return cls(embeddings=data["embeddings"], w1=data["w1"], b1=data["b1"],
                   w2=data["w2"], b2=data["b2"], k_max=int(data["k_max"]),
                   threshold=float(data["threshold"]))


def gate(encoding: np.ndarray, net: GatingNet) -> np.ndarray:
    """Pure forward pass from query encoding to sparse expert weights."""
    return sparse_softmax(net.logits(encoding), net.k_max, net.threshold)


class LinearExpert:
    def __init__(self, weights: np.ndarray, bias: float = 0.0):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)

    def evaluate(self, x: np.ndarray) -> float:
        return float(self.weights @ np.asarray(x, dtype=float) + self.bias)


@dataclass
class ExpertSet:
    """K predictors behind a common evaluate(); counts every evaluation."""

    experts: list
    eval_counts: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.experts:
            raise ValueError("need at least one expert")
        if not self.eval_counts:
            self.eval_counts = [0] * len(self.experts)

    def __len__(self):
        return len(self.experts)

    def evaluate(self, index: int, x) -> float:
        self.eval_counts[index] += 1
        return self.experts[index].evaluate(x)

    @classmethod
    def random_linear(cls, n_experts: int, n_features: int, seed: int = 0) -> "ExpertSet":
        gen = rnglib.derive(seed, "experts")
        return cls([LinearExpert(gen.normal(0, 1, n_features), float(gen.normal()))
                    for _ in range(n_experts)])


def sliced_predict(weights: np.ndarray, experts: ExpertSet, x) -> float:
    """Weighted mixture that never touches zero-weight experts."""
    weights = np.asarray(weights, dtype=float)
    if weights.size != len(experts):
        raise ValueError("weight vector length does not match expert count")
    total = 0.0
    for i, w in enumerate(weights):
        if w > 0.0:
            total += w * experts.evaluate(i, x)
    return total
