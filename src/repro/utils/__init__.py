"""Shared utilities: RNG management, tables, serialization."""

from repro.utils.rng import DEFAULT_SEED, hash_seed, make_rng, spawn
from repro.utils.serialization import dump_json, load_json, to_jsonable
from repro.utils.tables import format_ascii, format_float, format_markdown, write_csv

__all__ = [
    "DEFAULT_SEED",
    "hash_seed",
    "make_rng",
    "spawn",
    "dump_json",
    "load_json",
    "to_jsonable",
    "format_ascii",
    "format_float",
    "format_markdown",
    "write_csv",
]
