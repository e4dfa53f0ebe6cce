"""Instance model, dataset schemas, CSV ingestion and deterministic shuffling.

Labels are +1 (positive class) / -1 (negative class); the protected-group
flag is a plain bool (True = protected). Feature vectors are tuples mixing
floats (numeric attributes) and strings (categorical attributes) in schema
order; the protected attribute is one of the categorical feature columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .rng import permutation

POSITIVE = 1
NEGATIVE = -1


class DataError(Exception):
    """Raised for malformed input files or schema violations."""


class Instance(NamedTuple):
    features: tuple
    group: bool  # True = protected group
    label: int   # +1 / -1
    seq: int     # arrival index, 1-based


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str  # "num" | "cat"
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("num", "cat"):
            raise DataError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.kind == "cat" and not self.categories:
            raise DataError(f"categorical attribute {self.name!r} needs an alphabet")


@dataclass(frozen=True)
class DatasetSchema:
    attributes: tuple[AttributeSpec, ...]
    protected_attribute: str
    protected_value: str
    label_name: str
    label_values: tuple[str, ...]
    positive_value: str

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        prot = next((a for a in self.attributes
                     if a.name == self.protected_attribute), None)
        if prot is None:
            raise DataError(f"protected attribute {self.protected_attribute!r} not declared")
        if prot.kind != "cat":
            raise DataError("protected attribute must be categorical")
        if self.protected_value not in prot.categories:
            raise DataError(
                f"protected value {self.protected_value!r} not in alphabet of "
                f"{self.protected_attribute!r}")
        if self.positive_value not in self.label_values:
            raise DataError(f"positive label {self.positive_value!r} not in label alphabet")
        if len(self.label_values) < 2:
            raise DataError("label alphabet needs at least two values")

    @property
    def protected_index(self) -> int:
        return [a.name for a in self.attributes].index(self.protected_attribute)

    def kinds(self) -> tuple[str, ...]:
        """Per-attribute kind tuple consumed by the tree learners."""
        return tuple(a.kind for a in self.attributes)

    def negative_value(self) -> str:
        for v in self.label_values:
            if v != self.positive_value:
                return v
        raise DataError("label alphabet has no negative value")


def load_csv(path, schema: DatasetSchema) -> list[Instance]:
    """Parse a UTF-8 CSV file (header row first, after any byte-order mark)
    against `schema` into its instances, in file order.

    Rows are checked strictly: every schema column must be present, no
    header name may repeat, tokens in numeric columns must parse as finite
    floats (no nan or inf, and no literal that overflows to inf),
    categorical tokens must belong to the declared alphabet, and missing
    (empty) values are rejected, and so are bytes that are not UTF-8 and
    lines that csv cannot parse. Row numbers in error messages count data
    rows from 1.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _rows(path, csv.reader(fh))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file (no header row)")
        col = {name: i for i, name in enumerate(header)}
        if len(col) < len(header):
            dup = next(h for i, h in enumerate(header) if col[h] != i)
            raise DataError(f"{path}: duplicate column {dup!r}")
        known = [a.name for a in schema.attributes] + [schema.label_name]
        for name in known:
            if name not in col:
                raise DataError(f"{path}: missing column {name!r}")
        extra = [name for name in header if name not in known]
        if extra:
            raise DataError(f"{path}: unknown column {extra[0]!r}")

        instances: list[Instance] = []
        prot_idx = schema.protected_index
        width = len(header)
        for rownum, raw in enumerate(reader, start=1):
            if len(raw) != width:
                raise DataError(f"{path}: wrong field count at row {rownum}")
            cells = [c.strip() for c in raw]
            feats = []
            for a in schema.attributes:
                token = cells[col[a.name]]
                if token == "":
                    raise DataError(f"{path}: missing value at row {rownum}, column {a.name!r}")
                if a.kind == "num":
                    try:
                        value = float(token)
                    except ValueError:
                        raise DataError(
                            f"{path}: non-numeric value {token!r} at row {rownum}, "
                            f"column {a.name!r}")
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: non-finite value {token!r} at row {rownum}, "
                            f"column {a.name!r}")
                    feats.append(value)
                else:
                    if token not in a.categories:
                        if a.name == schema.protected_attribute:
                            raise DataError(f"unmapped protected value at row {rownum}")
                        raise DataError(
                            f"{path}: value {token!r} outside alphabet at row {rownum}, "
                            f"column {a.name!r}")
                    feats.append(token)
            label_token = cells[col[schema.label_name]]
            if label_token not in schema.label_values:
                raise DataError(f"unmapped label value at row {rownum}")
            label = POSITIVE if label_token == schema.positive_value else NEGATIVE
            group = feats[prot_idx] == schema.protected_value
            instances.append(Instance(tuple(feats), group, label, rownum))
    return instances


def _rows(path, reader):
    """The rows of the csv `reader` of file `path`; a decoding or csv error
    is raised as a DataError that names its line."""
    try:
        yield from reader
    except UnicodeDecodeError:   # decode the file again, for the byte's offset
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            line = raw.count(b"\n", 0, e.start) + 1
            raise DataError(f"{path}: byte {raw[e.start:e.end].hex()} on line "
                            f"{line} is not UTF-8") from None
        raise
    except csv.Error as e:
        raise DataError(f"{path}: {e} at line {reader.line_num}") from None


def save_csv(path, schema: DatasetSchema, instances: Iterable[Instance]) -> None:
    """Write instances in the load_csv format (header + one row per instance).

    csv writes a float as its repr, which load_csv reads back exactly. A
    long export may be written by a second process (parallel.write_rows),
    with the same bytes.
    """
    from . import parallel   # parallel imports boosting, which imports data
    pos, neg = schema.positive_value, schema.negative_value()
    rows = ((*inst.features, pos if inst.label == POSITIVE else neg)
            for inst in instances)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in schema.attributes] + [schema.label_name])
        parallel.write_rows(fh, writer, rows)


def shuffled(instances: list[Instance], seed: int) -> list[Instance]:
    """Deterministic shuffle of a dataset: Fisher-Yates over the pinned
    xorshift64* generator; seq is reassigned 1..n in the new order."""
    if not instances:
        raise DataError("cannot shuffle an empty dataset")
    perm = permutation(len(instances), seed)
    out = []
    for newpos, src in enumerate(perm, start=1):
        inst = instances[src]
        out.append(Instance(inst.features, inst.group, inst.label, newpos))
    return out
