"""Block constructors, ordered collections, mutation moves, and move scripts."""

from .blocks import Block, BlockRangeError, make_block, notation
from .engine import (
    Collection,
    EngineError,
    Entry,
    KClassMismatch,
    NoRuleMatch,
    NotSimple,
    OpaqueEntryError,
    PairCheck,
    ScriptError,
    VanishingFalse,
    VanishingNotEstablished,
    check_semiorthogonal,
    count_objects,
    count_tracked,
    exchange,
    expand_block,
    insert_opaque,
    mutate_block_left,
    mutate_left,
    mutate_right,
    promote,
    serre_tail,
    serre_twist,
)
from .scriptgen import GENERATORS, ReplayResult, run_script

__all__ = [name for name in dir() if not name.startswith("_")]
