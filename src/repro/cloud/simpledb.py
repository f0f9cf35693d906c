"""Simulated Amazon SimpleDB (circa January 2010).

Semantics implemented (§2.3 of the paper):

- domains of *items*; an item is a named bag of attribute-value pairs,
- attributes are multi-valued and schemaless; names and values are limited
  to 1 KB (the limit that forces P2/P3 to spill large provenance values to
  S3),
- ``BatchPutAttributes`` accepts at most 25 items per call,
- ``Select`` supports a subset of the SimpleDB query language used by the
  paper's queries: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``,
  ``BETWEEN ... AND ...``, ``LIKE 'prefix%'``, ``IN (...)``,
  ``AND``/``OR``, and ``itemName()``; every attribute is indexed, results
  are paginated with a next-token.  Comparisons are *lexicographic* on
  the string values, exactly like the real service — numeric attributes
  must be zero-padded by callers for range predicates to order correctly
  (``'0002' < '0010'`` but ``'10' < '2'``),
- reads are eventually consistent at item granularity.

Pagination is capped at :data:`SELECT_PAGE_ITEMS` items (standing in for
SimpleDB's 1 MB/2500-item response limits) — this is why the paper's Q1
needs several sequential round-trips on SimpleDB.

Select execution is *indexed*, like the real service: every
``put``/``batch_put``/``delete`` incrementally maintains per-domain
secondary indexes (attribute-value → item names, the sorted item-name
order, and a bisect-maintained sorted list of each attribute's distinct
values serving the ordered comparisons), and a small planner extracts
index-usable predicates from the parsed WHERE tree.  The indexes
over-approximate — they record every value an item has *ever* held,
except that an explicit ``DeleteAttributes`` un-indexes the deleted
pairs once the deletion has fully propagated (``replace`` puts never
un-index) — so each candidate is still verified through the same
eventually-consistent ``_observe`` read the full scan uses, keeping
answers, row ordering, and billing byte-identical to the
``use_indexes=False`` scan fallback.  A chain of pages runs off a
snapshot token: the match set is computed once at the first page and
served page by page, instead of re-matching the whole domain per page.
This makes a chain a *snapshot-consistent cursor* — a deliberate
semantic choice: writes whose visibility window elapses mid-chain no
longer surface in later pages (the pre-snapshot engine re-matched per
page and could; a token whose snapshot the TTL collected still does).
"""

from __future__ import annotations

import bisect
import re
import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cloud.billing import BillingMeter
from repro.cloud.consistency import (
    ConsistencyEngine,
    VersionedRegister,
    WriteVersion,
)
from repro.cloud.network import ParallelScheduler, Request
from repro.cloud.profiles import ServiceProfile
from repro.obs.tracing import SDB_VISIBLE
from repro.errors import (
    InvalidRequestError,
    LimitExceededError,
    NoSuchDomainError,
    QuerysyntaxError,
)

#: SimpleDB limits attribute names and values to 1 KB.
ATTRIBUTE_LIMIT_BYTES = 1024

#: Maximum items per BatchPutAttributes call.
BATCH_PUT_LIMIT = 25

#: Maximum attribute-value pairs per item.
ITEM_ATTRIBUTE_LIMIT = 256

#: Items returned per Select page.
SELECT_PAGE_ITEMS = 1200

#: Virtual seconds an untouched select snapshot survives before it is
#: garbage-collected (the way SQS expires in-flight messages): abandoned
#: chains — a crashed client mid-pagination, a query engine that stopped
#: following tokens — would otherwise pin their match sets forever.
SELECT_SNAPSHOT_TTL_SECONDS = 300.0

#: A select continuation token: ``snap-<snapshot id>:<row offset>``.
_SNAPSHOT_TOKEN = re.compile(r"snap-([0-9]+):([0-9]+)")

#: One item: (item name, [(attribute, value), ...]).
ItemPut = Tuple[str, Sequence[Tuple[str, str]]]

#: Materialized item attributes: attribute -> list of values.
ItemAttributes = Dict[str, List[str]]

#: One stored version's attributes, flat: ``(name, value, name, value,
#: ...)``, grouped by attribute in first-put order, values in put order
#: — one tuple per version instead of a dict plus a list per attribute.
PackedAttributes = Tuple[str, ...]


def _pack(attributes: ItemAttributes) -> PackedAttributes:
    return tuple(t for a, vs in attributes.items() for v in vs for t in (a, v))


def _unpack(packed: PackedAttributes) -> ItemAttributes:
    """A fresh dict of fresh lists: what the API hands callers."""
    attributes: ItemAttributes = {}
    texts = iter(packed)
    for attribute, value in zip(texts, texts):
        attributes.setdefault(attribute, []).append(value)
    return attributes


# --------------------------------------------------------------------------
# Select expression AST + parser
# --------------------------------------------------------------------------

class _Condition:
    """Base class for parsed WHERE conditions."""

    def matches(self, item_name: str, packed: PackedAttributes) -> bool:
        raise NotImplementedError


@dataclass
class _Comparison(_Condition):
    attribute: str
    op: str
    values: List[str]
    #: Compiled once at parse time.  Rebuilding the ``^...$`` regex per
    #: row dominated full-scan matching; conditions are immutable after
    #: parsing (``parse_select`` shares them through an LRU cache).
    _like_re: "Optional[re.Pattern[str]]" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.op == "like":
            # re.escape turns % into \%; rewrite those as wildcards.
            pattern = self.values[0]
            regex = (
                "^"
                + re.escape(pattern).replace("\\%", ".*").replace("%", ".*")
                + "$"
            )
            self._like_re = re.compile(regex)

    def matches(self, item_name: str, packed: PackedAttributes) -> bool:
        if self.attribute == "itemName()":
            candidates = [item_name]
        else:
            texts = iter(packed)
            candidates = [v for a, v in zip(texts, texts) if a == self.attribute]
        if self.op == "=":
            return any(v == self.values[0] for v in candidates)
        if self.op == "!=":
            # SimpleDB: true if any value differs (and the attribute exists).
            return any(v != self.values[0] for v in candidates)
        if self.op == "like":
            like_re = self._like_re
            return any(like_re.match(v) for v in candidates)
        if self.op == "in":
            allowed = set(self.values)
            return any(v in allowed for v in candidates)
        # Ordered comparisons are lexicographic on the raw strings, like
        # the real service; a multi-valued attribute matches if any of
        # its values does.
        if self.op == "<":
            return any(v < self.values[0] for v in candidates)
        if self.op == "<=":
            return any(v <= self.values[0] for v in candidates)
        if self.op == ">":
            return any(v > self.values[0] for v in candidates)
        if self.op == ">=":
            return any(v >= self.values[0] for v in candidates)
        if self.op == "between":
            low, high = self.values
            return any(low <= v <= high for v in candidates)
        raise QuerysyntaxError(f"unsupported operator {self.op!r}")

    def like_prefix(self) -> Optional[str]:
        """The pure prefix of a ``LIKE 'prefix%'`` pattern, or ``None``
        when the pattern wildcards anywhere but the tail (those fall back
        to scan matching)."""
        pattern = self.values[0]
        if pattern.endswith("%") and "%" not in pattern[:-1]:
            return pattern[:-1]
        if "%" not in pattern:
            return pattern  # exact match; range degenerates to one name
        return None


@dataclass
class _BoolOp(_Condition):
    op: str  # "and" | "or"
    left: _Condition
    right: _Condition

    def matches(self, item_name: str, packed: PackedAttributes) -> bool:
        if self.op == "and":
            return self.left.matches(item_name, packed) and self.right.matches(
                item_name, packed
            )
        return self.left.matches(item_name, packed) or self.right.matches(
            item_name, packed
        )


_TOKEN_RE = re.compile(
    r"""
    \s*(
        '(?:[^']|'')*'            # quoted string (with '' escapes)
      | itemName\(\)              # item name function
      | [A-Za-z_][A-Za-z0-9_.\-]* # identifier / keyword
      | `[^`]+`                   # backtick-quoted attribute
      | != | <= | >= | < | > | = | \( | \) | ,
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip() == "":
                break
            raise QuerysyntaxError(f"cannot tokenize query at: {text[pos:]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the WHERE clause grammar::

        expr    := term (OR term)*
        term    := factor (AND factor)*
        factor  := '(' expr ')' | comparison
        comparison := attr ('=' | '!=' | '<' | '<=' | '>' | '>=') value
                    | attr LIKE value
                    | attr BETWEEN value AND value
                    | attr IN '(' value (',' value)* ')'
    """

    def __init__(self, tokens: List[str]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Optional[str]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise QuerysyntaxError("unexpected end of query")
        self._pos += 1
        return token

    def parse(self) -> _Condition:
        expr = self._expr()
        if self._peek() is not None:
            raise QuerysyntaxError(f"trailing tokens: {self._tokens[self._pos:]}")
        return expr

    def _expr(self) -> _Condition:
        left = self._term()
        while self._peek() and self._peek().lower() == "or":
            self._next()
            left = _BoolOp("or", left, self._term())
        return left

    def _term(self) -> _Condition:
        left = self._factor()
        while self._peek() and self._peek().lower() == "and":
            self._next()
            left = _BoolOp("and", left, self._factor())
        return left

    def _factor(self) -> _Condition:
        if self._peek() == "(":
            self._next()
            expr = self._expr()
            if self._next() != ")":
                raise QuerysyntaxError("expected ')'")
            return expr
        return self._comparison()

    def _comparison(self) -> _Condition:
        attribute = self._attribute(self._next())
        op = self._next().lower()
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return _Comparison(attribute, op, [self._value(self._next())])
        if op == "between":
            low = self._value(self._next())
            keyword = self._next()
            if keyword.lower() != "and":
                raise QuerysyntaxError(
                    f"expected AND in BETWEEN, got {keyword!r}"
                )
            high = self._value(self._next())
            return _Comparison(attribute, "between", [low, high])
        if op == "like":
            return _Comparison(attribute, "like", [self._value(self._next())])
        if op == "in":
            if self._next() != "(":
                raise QuerysyntaxError("expected '(' after IN")
            values = [self._value(self._next())]
            while self._peek() == ",":
                self._next()
                values.append(self._value(self._next()))
            if self._next() != ")":
                raise QuerysyntaxError("expected ')' closing IN list")
            return _Comparison(attribute, "in", values)
        raise QuerysyntaxError(f"unsupported operator {op!r}")

    @staticmethod
    def _attribute(token: str) -> str:
        if token.startswith("`") and token.endswith("`"):
            return token[1:-1]
        return token

    @staticmethod
    def _value(token: str) -> str:
        if not (token.startswith("'") and token.endswith("'")):
            raise QuerysyntaxError(f"expected quoted value, got {token!r}")
        return token[1:-1].replace("''", "'")


_SELECT_RE = re.compile(
    r"^\s*select\s+\*\s+from\s+(`[^`]+`|[A-Za-z0-9_.\-]+)(?:\s+where\s+(.*))?\s*$",
    re.IGNORECASE | re.DOTALL,
)


@lru_cache(maxsize=1024)
def _parse_select_cached(expression: str) -> Tuple[str, Optional[_Condition]]:
    match = _SELECT_RE.match(expression)
    if not match:
        raise QuerysyntaxError(f"cannot parse select expression: {expression!r}")
    domain = match.group(1)
    if domain.startswith("`"):
        domain = domain[1:-1]
    where = match.group(2)
    condition = _Parser(_tokenize(where)).parse() if where else None
    return domain, condition


def parse_select(expression: str) -> Tuple[str, Optional[_Condition]]:
    """Parse a ``SELECT * FROM domain [WHERE ...]`` expression.

    Returns the domain name and the parsed condition (``None`` for no
    WHERE clause).  Results are LRU-cached — conditions are immutable
    after parsing, so repeated selects (a paging chain, a daemon's poll
    loop) share one compiled condition tree.
    """
    return _parse_select_cached(expression)


@dataclass(frozen=True)
class PreparedSelect:
    """A parsed select, reusable across a whole next-token page chain.

    Build one with :func:`prepare_select` (or implicitly by passing an
    expression string to ``select_request``); pass it back for every
    continuation page so the expression is parsed and planned once per
    chain rather than once per page.
    """

    expression: str
    domain: str
    condition: Optional[_Condition]


def prepare_select(expression: str) -> PreparedSelect:
    """Parse an expression into a reusable :class:`PreparedSelect`."""
    domain, condition = parse_select(expression)
    return PreparedSelect(expression=expression, domain=domain, condition=condition)


# --------------------------------------------------------------------------
# Per-domain state: the registry plus incrementally maintained indexes
# --------------------------------------------------------------------------

#: Tail size at which a two-tier run folds its mutable tail into the
#: sorted main run.  Small enough that an out-of-order ``insort`` into
#: the tail stays cheap, large enough that merges amortize; in-order
#: arrivals (the common provenance pattern — item names and interned
#: ids are both assigned in increasing order) bypass the tail entirely
#: and append straight to the main run.
_TAIL_MERGE_THRESHOLD = 2048


def _range_slice(
    ordered: Sequence[str],
    low: Optional[str],
    high: Optional[str],
    incl_low: bool,
    incl_high: bool,
) -> Tuple[int, int]:
    """Binary-searched ``[start, stop)`` indices of a lexicographic
    range over a sorted sequence (``None`` bound = unbounded)."""
    start = 0
    if low is not None:
        start = (
            bisect.bisect_left(ordered, low)
            if incl_low
            else bisect.bisect_right(ordered, low)
        )
    stop = len(ordered)
    if high is not None:
        stop = (
            bisect.bisect_right(ordered, high)
            if incl_high
            else bisect.bisect_left(ordered, high)
        )
    return start, max(start, stop)


def _sorted_index(run: Sequence, key) -> int:
    """Position of ``key`` in a sorted sequence, or -1."""
    index = bisect.bisect_left(run, key)
    return index if index < len(run) and run[index] == key else -1


class _NameTable:
    """One domain's item names under dense uint32 ids.

    ``by_id[ident]`` is the name; ids are assigned in first-write order,
    so a fresh item appends to the end of its sorted posting runs.  The
    sorted name order (select page order, prefix and ``itemName()``
    ranges) is a list with each name's id beside it in a parallel
    ``array('I')``.  That 4-byte slot is the id's only home: ``id_of``
    is a bisect, where a ``name -> id`` dict would pay a hash slot and a
    boxed int per item beside the registry already keyed by the same
    names.  Out-of-order arrivals wait in a small ``name -> id`` dict
    that is folded in at :data:`_TAIL_MERGE_THRESHOLD` or by the next
    ordered read (one keyed Timsort over two runs)."""

    __slots__ = ("by_id", "_sorted", "_sorted_ids", "_tail")

    def __init__(self) -> None:
        self.by_id: List[str] = []
        self._sorted: List[str] = []
        self._sorted_ids = array("I")
        self._tail: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.by_id)

    def id_of(self, name: str) -> Optional[int]:
        ident = self._tail.get(name) if self._tail else None
        if ident is None:
            index = _sorted_index(self._sorted, name)
            if index >= 0:
                ident = self._sorted_ids[index]
        return ident

    def intern(self, name: str) -> int:
        """The id of ``name``, assigning the next one on first sight."""
        names = self._sorted
        in_order = not self._tail and (not names or name > names[-1])
        ident = None if in_order else self.id_of(name)
        if ident is None:
            ident = len(self.by_id)
            self.by_id.append(name)
            if in_order:
                names.append(name)
                self._sorted_ids.append(ident)
            else:
                self._tail[name] = ident
                if len(self._tail) >= _TAIL_MERGE_THRESHOLD:
                    self._fold_tail()
        return ident

    def _fold_tail(self) -> None:
        by_id = self.by_id
        ids = list(self._sorted_ids)
        ids.extend(self._tail.values())
        ids.sort(key=by_id.__getitem__)
        self._sorted_ids = array("I", ids)
        self._sorted = list(map(by_id.__getitem__, ids))
        self._tail = {}

    def ordered(self) -> List[str]:
        """Every name in sorted order (folds any tail in first).
        Callers must treat it as read-only."""
        if self._tail:
            self._fold_tail()
        return self._sorted

    def ordered_ids(self) -> array:
        """The ids of :meth:`ordered`, position for position."""
        if self._tail:
            self._fold_tail()
        return self._sorted_ids

    def memory_bytes(self) -> int:
        # Both lists, the id array, the tail with its boxed ids, and
        # one count of each name string (shared with the registry keys).
        total = sys.getsizeof(self.by_id) + sys.getsizeof(self._sorted)
        total += sys.getsizeof(self._sorted_ids) + sys.getsizeof(self._tail)
        total += sum(sys.getsizeof(i) for i in self._tail.values())
        total += sum(sys.getsizeof(name) for name in self.by_id)
        return total


class _SortedIdRun:
    """A wide sorted id run with out-of-order arrivals pending.

    Postings are bare sorted ``array('I')`` buffers; one is wrapped in
    this only while it is at least :data:`_TAIL_MERGE_THRESHOLD` ids
    long *and* has ids waiting that arrived out of order.  They sit in
    a small sorted ``tail`` (an insert shifts at most a threshold of
    ids instead of the whole run) that one two-run Timsort merges into
    ``main`` at the threshold, after which the owner keeps a bare
    array again.  Membership bisects both tiers."""

    __slots__ = ("main", "tail")

    def __init__(self, main: array) -> None:
        self.main = main
        self.tail = array("I")

    def __len__(self) -> int:
        return len(self.main) + len(self.tail)

    def ids(self) -> array:
        """Every id, unordered across the tiers."""
        return self.main + self.tail

    def add(self, ident: int) -> bool:
        """Insert ``ident`` if absent; returns True when newly added."""
        if _sorted_index(self.main, ident) >= 0 or (
            _sorted_index(self.tail, ident) >= 0
        ):
            return False
        bisect.insort(self.tail, ident)
        return True

    def merged(self) -> array:
        """``main`` with the tail merged in (Timsort sees two sorted
        runs and gallops through them in C)."""
        merged = list(self.main)
        merged.extend(self.tail)
        merged.sort()
        return array("I", merged)


def _posting_add(values: Dict[str, object], value: str, ident: int) -> int:
    """Add ``ident`` to the posting of ``value``; returns the posting's
    new size, or 0 when the id was already there.

    The representation follows the cardinality: one id is stored
    inline as the int itself, the second distinct id promotes it to a
    bare sorted ``array('I')``, and only a wide array taking an
    out-of-order id is wrapped in a :class:`_SortedIdRun`."""
    posting = values.get(value)
    if posting is None:
        values[value] = ident
        return 1
    if posting.__class__ is int:
        if posting == ident:
            return 0
        values[value] = array(
            "I", (posting, ident) if posting < ident else (ident, posting)
        )
        return 2
    if posting.__class__ is array:
        if ident > posting[-1]:
            posting.append(ident)
            return len(posting)
        index = bisect.bisect_left(posting, ident)
        if posting[index] == ident:
            return 0
        if len(posting) < _TAIL_MERGE_THRESHOLD:
            posting.insert(index, ident)
            return len(posting)
        posting = values[value] = _SortedIdRun(posting)
    if not posting.add(ident):
        return 0
    if len(posting.tail) >= _TAIL_MERGE_THRESHOLD:
        values[value] = posting.merged()
    return len(posting)


def _posting_discard(values: Dict[str, object], value: str, ident: int) -> int:
    """Remove ``ident`` from the posting of ``value``; returns the new
    size, or -1 when the id was not there.  A posting back at one id is
    demoted to the inline int, an emptied one leaves the dict."""
    posting = values[value]
    if posting.__class__ is int:
        if posting != ident:
            return -1
        del values[value]
        return 0
    if posting.__class__ is _SortedIdRun:
        # Deletes are rare: settle the wide run back to a bare array.
        posting = values[value] = posting.merged()
    index = _sorted_index(posting, ident)
    if index < 0:
        return -1
    del posting[index]
    if len(posting) == 1:
        values[value] = posting[0]
    return len(posting)


def _posting_ids(posting: object) -> Sequence[int]:
    """The ids of one stored posting, as a sized iterable."""
    if posting.__class__ is int:
        return (posting,)
    return posting if posting.__class__ is array else posting.ids()


class _SortedStringRun:
    """Two-tier sorted run of unique strings (callers guarantee
    uniqueness — the per-attribute value dict guards distinct values):
    in-order inserts append to the sorted main list, out-of-order
    inserts land in a small sorted tail merged at the threshold.
    Readers call :meth:`ordered`, which folds any tail in first — reads
    are rarer than writes at ingest scale, and a fold after ≤ threshold
    tail inserts is one two-run Timsort merge."""

    _THRESHOLD = _TAIL_MERGE_THRESHOLD

    __slots__ = ("_main", "_tail")

    def __init__(self) -> None:
        self._main: List[str] = []
        self._tail: Optional[List[str]] = None

    def __len__(self) -> int:
        return len(self._main) + (len(self._tail) if self._tail is not None else 0)

    def __iter__(self):
        return iter(self.ordered())

    def add(self, text: str) -> None:
        main = self._main
        tail = self._tail
        if tail is None:
            if not main or text > main[-1]:
                main.append(text)
                return
            tail = self._tail = []
        if not tail or text > tail[-1]:
            tail.append(text)
        else:
            bisect.insort(tail, text)
        if len(tail) >= self._THRESHOLD:
            self._fold_tail()
        return

    def discard(self, text: str) -> bool:
        main = self._main
        index = bisect.bisect_left(main, text)
        if index < len(main) and main[index] == text:
            del main[index]
            return True
        tail = self._tail
        if tail is None:
            return False
        index = bisect.bisect_left(tail, text)
        if index < len(tail) and tail[index] == text:
            del tail[index]
            if not tail:
                self._tail = None
            return True
        return False

    def _fold_tail(self) -> None:
        tail = self._tail
        if tail:
            main = self._main
            if main and tail[0] < main[-1]:
                main.extend(tail)
                main.sort()
            else:
                main.extend(tail)
        self._tail = None

    def ordered(self) -> List[str]:
        """The fully merged sorted list (folds any tail in first).
        Callers must treat it as read-only."""
        if self._tail is not None:
            self._fold_tail()
        return self._main

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._main)
        if self._tail is not None:
            total += sys.getsizeof(self._tail)
        return total


class _DomainState:
    """One domain's item registry, secondary indexes, and selectivity
    bookkeeping.

    The indexes are *over-approximations* maintained on every write: they
    record every attribute-value pair an item has ever held (``replace``
    puts never un-index), so an index lookup yields a superset of the
    items matching at any observation time.  Every candidate is then
    verified through ``_observe`` + the full condition, which is what
    keeps indexed selects byte-identical to scans under eventual
    consistency.  Values form sets, so re-puts of the same pair (the
    commit daemon's idempotent re-commits) never double-index.

    The one removal path is an explicit ``DeleteAttributes``: the deleted
    pairs are scheduled for un-indexing at the deleting write's
    *visibility* time — never earlier, because until the delete has
    propagated an eventually-consistent read can still observe the old
    value, and pruning the entry then would make the indexed path miss a
    row the scan still finds.  A re-put of the same pair cancels the
    pending removal.

    Item names live once in a :class:`_NameTable` (dense uint32 ids,
    the sorted name order with each id beside it), and a posting's
    layout follows its cardinality: a value held by one item stores
    that id inline in ``by_attr[attribute][value]``, the second
    distinct id promotes it to a bare sorted ``array('I')``
    (:func:`_posting_add`), and pruning back to one id demotes it
    (:func:`_posting_discard`) — a high-cardinality attribute, where
    nearly every value is a singleton, pays a dict slot and an int per
    value instead of two objects.  Each attribute's sorted distinct
    values are a :class:`_SortedStringRun`.
    """

    __slots__ = (
        "registry",
        "pending_unindex",
        "attr_postings",
        "set_size_hist",
        "names",
        "by_attr",
        "sorted_values",
    )

    def __init__(self) -> None:
        self.registry: Dict[str, VersionedRegister[PackedAttributes]] = {}
        #: (attribute, value, item name) -> virtual time at which the
        #: entry may be pruned (the deleting write's visibility time).
        self.pending_unindex: Dict[Tuple[str, str, str], float] = {}
        #: attribute -> total index entries (sum of its value sets'
        #: sizes), maintained incrementally — with the distinct-value
        #: count this gives the mean set size the cost model estimates
        #: range walks with, without touching the sets at plan time.
        #: Entries are popped when they reach zero; a stored count is
        #: always positive.
        self.attr_postings: Dict[str, int] = {}
        #: attribute -> log2-bucketed histogram of its value-set sizes
        #: (bucket = ``size.bit_length()``: sizes 1, 2–3, 4–7, ...).
        #: A skew diagnostic for :meth:`SimpleDBService.selectivity` —
        #: a uniform attribute has one hot bucket, a Zipfian one a tail.
        #: Bucket counts are popped at zero and the inner dict is popped
        #: when empty, so the histogram never leaks dead buckets and a
        #: stored count is always positive.
        self.set_size_hist: Dict[str, Dict[int, int]] = {}
        #: The domain's item names: ids, and the sorted order.
        self.names = _NameTable()
        #: attribute -> value -> posting (inline id, id array, or a
        #: wide run with a pending tail).
        self.by_attr: Dict[str, Dict[str, object]] = {}
        #: attribute -> its distinct values, sorted (two-tier runs).
        self.sorted_values: Dict[str, _SortedStringRun] = {}

    # -- selectivity bookkeeping ---------------------------------------------

    def _note_posting_resize(self, attribute: str, old: int, new: int) -> None:
        """One value's posting went from ``old`` to ``new`` entries:
        move the attribute's posting total by the difference and the
        value's histogram entry from bucket(``old``) to bucket(``new``).
        Decrements are guarded: one may only consume a positive stored
        count (an absent entry is never driven negative — it is left
        absent), counts are popped at zero, and an inner dict emptied
        by its last pop is removed from ``set_size_hist`` rather than
        leaking as ``{}`` forever."""
        total = self.attr_postings.get(attribute, 0) + new - old
        if total > 0:
            self.attr_postings[attribute] = total
        else:
            self.attr_postings.pop(attribute, None)
        old_bucket, new_bucket = old.bit_length(), new.bit_length()
        if old_bucket == new_bucket:
            return
        hist = self.set_size_hist.get(attribute)
        if hist is None:
            hist = self.set_size_hist[attribute] = {}
        if old_bucket:
            remaining = hist.get(old_bucket, 0) - 1
            if remaining > 0:
                hist[old_bucket] = remaining
            else:
                hist.pop(old_bucket, None)
        if new_bucket:
            hist[new_bucket] = hist.get(new_bucket, 0) + 1
        if not hist:
            del self.set_size_hist[attribute]

    def recount_stats(
        self,
    ) -> Tuple[Dict[str, int], Dict[str, Dict[int, int]]]:
        """From-scratch recount of ``attr_postings``/``set_size_hist``
        off the live index sets — the invariant the property tests pin
        the incremental bookkeeping against after arbitrary put/delete/
        select interleavings."""
        postings: Dict[str, int] = {}
        hist: Dict[str, Dict[int, int]] = {}
        for attribute, values in self.by_attr.items():
            for members in values.values():
                size = 1 if members.__class__ is int else len(members)
                if not size:
                    continue
                postings[attribute] = postings.get(attribute, 0) + size
                inner = hist.setdefault(attribute, {})
                bucket = size.bit_length()
                inner[bucket] = inner.get(bucket, 0) + 1
        return postings, hist

    # -- writes --------------------------------------------------------------

    def schedule_unindex(
        self, name: str, pairs: Sequence[Tuple[str, str]], visible_at: float
    ) -> None:
        """Queue index-entry removals for explicitly deleted pairs; they
        fire lazily once a select observes a time past ``visible_at``."""
        for attribute, value in pairs:
            key = (attribute, value, name)
            queued = self.pending_unindex.get(key)
            if queued is None or visible_at > queued:
                self.pending_unindex[key] = visible_at

    def add_name(self, name: str) -> None:
        self.names.intern(name)

    def note_pairs(self, name: str, pairs: Sequence[Tuple[str, str]]) -> None:
        ident = self.names.intern(name)
        by_attr = self.by_attr
        pending = self.pending_unindex
        for attribute, value in pairs:
            values = by_attr.get(attribute)
            if values is None:
                values = by_attr[attribute] = {}
                self.sorted_values[attribute] = _SortedStringRun()
            size = _posting_add(values, value, ident)
            if size:
                if size == 1:
                    self.sorted_values[attribute].add(value)
                self._note_posting_resize(attribute, size - 1, size)
            if pending:
                # A re-put beats any queued removal: the pair is live again.
                pending.pop((attribute, value, name), None)

    def prune_unindexed(self, now: float) -> int:
        """Apply every queued removal whose delete is fully visible at
        ``now``.  Returns how many entries were pruned."""
        if not self.pending_unindex:
            return 0
        fired = [
            key for key, at in self.pending_unindex.items() if at <= now
        ]
        for key in fired:
            del self.pending_unindex[key]
            attribute, value, name = key
            values = self.by_attr.get(attribute)
            ident = self.names.id_of(name)
            if not values or value not in values or ident is None:
                continue
            size = _posting_discard(values, value, ident)
            if size >= 0:
                self._note_posting_resize(attribute, size + 1, size)
            if not size:
                self.sorted_values[attribute].discard(value)
                if not values:
                    # Last value gone: drop the attribute's (now empty)
                    # containers instead of leaking them.
                    del self.by_attr[attribute]
                    del self.sorted_values[attribute]
        return len(fired)

    # -- reads the planner codes against --------------------------------------

    def ordered_names(self) -> List[str]:
        """Every item name ever written, in sorted order (select page
        order, prefix and ``itemName()`` ranges read off it)."""
        return self.names.ordered()

    # The index reads below return *candidate keys*: item ids (ints, id
    # arrays, id slices) the planner only intersects, unions and
    # measures, and hands back to ``names_of`` once, at the end.
    # Collections may be live index structures — callers never mutate
    # them.

    def keys_of(self, names: Sequence[str]) -> Collection:
        """Candidate keys of the given item names (``itemName() =``
        and ``IN`` leaves); names the domain never saw are dropped."""
        idents = set(map(self.names.id_of, names))
        idents.discard(None)
        return idents

    def names_of(self, keys: Collection) -> List[str]:
        """Item names of a candidate set, in page order."""
        return sorted(map(self.names.by_id.__getitem__, keys))

    def _keys_at(self, start: int, stop: int) -> Collection:
        """Keys of positions ``[start, stop)`` of the sorted name order."""
        return self.names.ordered_ids()[start:stop]

    def names_with(self, attribute: str, value: str) -> Collection:
        posting = self.by_attr.get(attribute, {}).get(value)
        return () if posting is None else _posting_ids(posting)

    def count_with(self, attribute: str, value: str) -> int:
        """O(len-read) posting count for one ``attribute = value``
        pair — the cost model's estimate probe, no set
        materialization."""
        posting = self.by_attr.get(attribute, {}).get(value)
        if posting is None:
            return 0
        return 1 if posting.__class__ is int else len(posting)

    def distinct_value_count(self, attribute: str) -> int:
        return len(self.by_attr.get(attribute, {}))

    def ordered_values(self, attribute: str) -> List[str]:
        run = self.sorted_values.get(attribute)
        return run.ordered() if run is not None else []

    def count_values_in_range(
        self,
        attribute: str,
        low: Optional[str],
        high: Optional[str],
        incl_low: bool,
        incl_high: bool,
    ) -> int:
        start, stop = _range_slice(
            self.ordered_values(attribute), low, high, incl_low, incl_high
        )
        return stop - start

    def count_names_with_prefix(self, prefix: str) -> int:
        names = self.ordered_names()
        start = bisect.bisect_left(names, prefix)
        stop = bisect.bisect_right(names, prefix + "\U0010ffff")
        return max(0, stop - start)

    def count_names_in_range(
        self,
        low: Optional[str],
        high: Optional[str],
        incl_low: bool,
        incl_high: bool,
    ) -> int:
        start, stop = _range_slice(
            self.ordered_names(), low, high, incl_low, incl_high
        )
        return stop - start

    def names_with_prefix(self, prefix: str) -> Collection:
        names = self.ordered_names()
        start = stop = bisect.bisect_left(names, prefix)
        while stop < len(names) and names[stop].startswith(prefix):
            stop += 1
        return self._keys_at(start, stop)

    def names_in_name_range(
        self,
        low: Optional[str],
        high: Optional[str],
        incl_low: bool,
        incl_high: bool,
        limit: int,
    ) -> Optional[Collection]:
        """Items inside a lexicographic ``itemName()`` range, read
        off the sorted name order — or ``None`` when the range spans
        more than ``limit`` names (the planner's wide-range bailout: a
        candidate walk over most of the domain is no faster than the
        scan it replaces)."""
        start, stop = _range_slice(
            self.ordered_names(), low, high, incl_low, incl_high
        )
        if stop - start > limit:
            return None
        return self._keys_at(start, stop)

    def names_in_value_range(
        self,
        attribute: str,
        low: Optional[str],
        high: Optional[str],
        incl_low: bool,
        incl_high: bool,
        limit: int,
    ) -> Optional[Collection]:
        """Union of the postings of every indexed value of
        ``attribute`` inside the lexicographic range — or ``None`` when
        the range spans more than ``limit`` distinct values *or* the
        accumulated union exceeds ``limit`` items (a low-cardinality
        attribute can cover most of the domain in a handful of values;
        the bailout is about candidate-walk cost, which is items, not
        values)."""
        values = self.by_attr.get(attribute)
        if not values:
            return ()
        ordered = self.ordered_values(attribute)
        start, stop = _range_slice(ordered, low, high, incl_low, incl_high)
        if stop - start > limit:
            return None
        out: Set[int] = set()
        for value in ordered[start:stop]:
            out.update(_posting_ids(values[value]))
            if len(out) > limit:
                return None
        return out

    def memory_bytes(self) -> int:
        """Index footprint: container overhead, every posting in the
        form it is stored in (an inline id is priced as its boxed int,
        an id array with its allocated slack), the name table with its
        id slots, one count of each distinct string (names via the
        table, attribute/value strings via their dict keys), the
        pending-unindex tuples, and the selectivity stats with their
        inner dicts."""
        total = self.names.memory_bytes()
        total += sys.getsizeof(self.by_attr)
        for attribute, values in self.by_attr.items():
            total += sys.getsizeof(attribute) + sys.getsizeof(values)
            for value, posting in values.items():
                total += sys.getsizeof(value) + sys.getsizeof(posting)
                if posting.__class__ is _SortedIdRun:
                    total += sys.getsizeof(posting.main)
                    total += sys.getsizeof(posting.tail)
        total += sys.getsizeof(self.sorted_values)
        for run in self.sorted_values.values():
            total += sys.getsizeof(run) + run.memory_bytes()
        total += _pending_unindex_bytes(self.pending_unindex)
        total += _stats_bytes(self.attr_postings, self.set_size_hist)
        return total


def _pending_unindex_bytes(pending: Dict[Tuple[str, str, str], float]) -> int:
    """The pending-unindex dict plus its tuple keys and float values —
    the part the old gauge skipped (it priced only the outer dict)."""
    total = sys.getsizeof(pending)
    for key, at in pending.items():
        total += sys.getsizeof(key) + sys.getsizeof(at)
    return total


def _stats_bytes(
    postings: Dict[str, int], hist: Dict[str, Dict[int, int]]
) -> int:
    """Selectivity-stat footprint including the per-attribute inner
    histogram dicts and boxed counts the old gauge undercounted."""
    total = sys.getsizeof(postings)
    total += sum(sys.getsizeof(count) for count in postings.values())
    total += sys.getsizeof(hist)
    for inner in hist.values():
        total += sys.getsizeof(inner)
        total += sum(
            sys.getsizeof(bucket) + sys.getsizeof(count)
            for bucket, count in inner.items()
        )
    return total


#: op -> (low, high, incl_low, incl_high) extracted from the condition's
#: value list; ``None`` bounds are unbounded.
_RANGE_BOUNDS = {
    "<": lambda values: (None, values[0], True, False),
    "<=": lambda values: (None, values[0], True, True),
    ">": lambda values: (values[0], None, False, True),
    ">=": lambda values: (values[0], None, True, True),
    "between": lambda values: (values[0], values[1], True, True),
}


def _as_set(keys: Collection) -> Set:
    return keys if keys.__class__ is set else set(keys)


# --------------------------------------------------------------------------
# Cost-based planning: selectivity estimates drive the index decision
# --------------------------------------------------------------------------

def _cost_scan_threshold(state: _DomainState) -> int:
    """Estimated candidate count at which an index walk stops being
    cheaper than the scan it replaces.  A candidate walk sorts the set
    and re-verifies every survivor, so once the estimate approaches the
    domain it buys nothing; the 64-name floor keeps small domains (and
    every unit-test fixture) on the index path, where the walk is cheap
    regardless."""
    return max(64, len(state.names) // 2)


def _estimate_candidates(
    condition: _Condition, state: _DomainState
) -> Optional[int]:
    """Estimated candidate-walk size of a WHERE subtree, or ``None``
    when no index applies to it.

    Equality and ``IN`` read exact set sizes off the hash indexes.
    Ranges are estimated without materializing: ``itemName()`` ranges
    binary-search the sorted name order (exact); attribute ranges count
    the distinct values in range and multiply by the attribute's mean
    set size (``attr_postings / distinct``) — cheap, and close enough
    to order AND sides and to price the bailout.  ``AND`` costs what
    its cheapest indexable side costs (the others intersect or verify);
    ``OR`` costs the sum and is only indexable when every side is.
    """
    if isinstance(condition, _BoolOp):
        left = _estimate_candidates(condition.left, state)
        right = _estimate_candidates(condition.right, state)
        if condition.op == "and":
            if left is None:
                return right
            if right is None:
                return left
            return min(left, right)
        if left is None or right is None:
            return None
        return left + right
    if not isinstance(condition, _Comparison):
        return None
    attribute = condition.attribute
    if condition.op == "=":
        if attribute == "itemName()":
            return 1
        return state.count_with(attribute, condition.values[0])
    if condition.op == "in":
        if attribute == "itemName()":
            return len(condition.values)
        return sum(
            state.count_with(attribute, value)
            for value in condition.values
        )
    if condition.op == "like" and attribute == "itemName()":
        prefix = condition.like_prefix()
        if prefix is None:
            return None
        return state.count_names_with_prefix(prefix)
    if condition.op in _RANGE_BOUNDS:
        low, high, incl_low, incl_high = _RANGE_BOUNDS[condition.op](
            condition.values
        )
        if attribute == "itemName()":
            return state.count_names_in_range(low, high, incl_low, incl_high)
        distinct = state.distinct_value_count(attribute)
        if not distinct:
            return 0
        in_range = state.count_values_in_range(
            attribute, low, high, incl_low, incl_high
        )
        if in_range <= 0:
            return 0
        postings = state.attr_postings.get(attribute, 0)
        mean = postings / distinct
        return max(in_range, int(in_range * mean))
    return None


def _flatten_and(condition: _Condition, out: List[_Condition]) -> None:
    if isinstance(condition, _BoolOp) and condition.op == "and":
        _flatten_and(condition.left, out)
        _flatten_and(condition.right, out)
    else:
        out.append(condition)


def _describe_condition(condition: _Condition) -> str:
    if isinstance(condition, _BoolOp):
        return (
            f"({_describe_condition(condition.left)}) {condition.op} "
            f"({_describe_condition(condition.right)})"
        )
    assert isinstance(condition, _Comparison)
    return f"{condition.attribute} {condition.op} {condition.values}"


@dataclass
class _CostPlan:
    """One chain's planning outcome: the candidate set (``None`` =
    scan), the root estimate, and the explain payload."""

    candidates: Optional[Collection]
    estimate: Optional[int]
    #: True when the tree was indexable but the estimate priced the
    #: candidate walk at or above the scan threshold.
    bailed_out: bool = False
    #: AND conjuncts whose intersection was skipped as more expensive
    #: than letting verification enforce them.
    sides_skipped: int = 0
    #: JSON-able node descriptions for ``explain()``.
    nodes: List[Dict[str, object]] = field(default_factory=list)


def _materialize_leaf(
    condition: _Comparison, state: _DomainState, limit: int
) -> Optional[Collection]:
    """One comparison's candidate keys, read off the indexes — or
    ``None`` when no index serves it or a range passes ``limit``."""
    attribute, values = condition.attribute, condition.values
    if condition.op == "=":
        if attribute == "itemName()":
            return state.keys_of(values[:1])
        return state.names_with(attribute, values[0])
    if condition.op == "in":
        if attribute == "itemName()":
            return state.keys_of(values)
        out: Set = set()
        for value in values:
            out.update(state.names_with(attribute, value))
        return out
    if condition.op == "like" and attribute == "itemName()":
        prefix = condition.like_prefix()
        if prefix is None:
            return None
        return state.names_with_prefix(prefix)
    if condition.op in _RANGE_BOUNDS:
        low, high, incl_low, incl_high = _RANGE_BOUNDS[condition.op](values)
        if attribute == "itemName()":
            return state.names_in_name_range(
                low, high, incl_low, incl_high, limit=limit
            )
        return state.names_in_value_range(
            attribute, low, high, incl_low, incl_high, limit=limit
        )
    return None


def _cost_materialize(
    condition: _Condition, state: _DomainState, threshold: int, plan: _CostPlan
) -> Optional[Collection]:
    """Materialize a candidate set under the cost model.

    ``AND`` nodes are flattened and walked cheapest-estimate-first: the
    cheapest indexable conjunct seeds the set, and each further side is
    intersected only while its estimated cost is proportionate to the
    running set (``<= max(64, 2 * |current|)``) — a wide side costs more
    to materialize than the rows it would remove, and verification
    enforces it anyway.  ``OR`` unions both sides (both must be
    indexable).  Every set returned is a
    superset of the true matches, so the decision only moves cost,
    never answers."""
    if isinstance(condition, _BoolOp) and condition.op == "and":
        conjuncts: List[_Condition] = []
        _flatten_and(condition, conjuncts)
        sides = [
            (_estimate_candidates(side, state), side) for side in conjuncts
        ]
        indexable = sorted(
            ((est, index) for index, (est, _) in enumerate(sides)
             if est is not None),
            key=lambda pair: pair[0],
        )
        current: Optional[Collection] = None
        for est, index in indexable:
            side = sides[index][1]
            if current is None:
                current = _cost_materialize(side, state, threshold, plan)
                continue
            if est > max(64, 2 * len(current)):
                plan.sides_skipped += 1
                plan.nodes.append({
                    "node": _describe_condition(side),
                    "estimate": est,
                    "action": "verify-only",
                })
                continue
            candidates = _cost_materialize(side, state, threshold, plan)
            if candidates is not None:
                current = _as_set(current).intersection(candidates)
        return current
    if isinstance(condition, _BoolOp):
        left = _cost_materialize(condition.left, state, threshold, plan)
        if left is None:
            return None
        right = _cost_materialize(condition.right, state, threshold, plan)
        if right is None:
            return None
        return _as_set(left).union(right)
    assert isinstance(condition, _Comparison)
    candidates = _materialize_leaf(condition, state, threshold)
    plan.nodes.append({
        "node": _describe_condition(condition),
        "estimate": _estimate_candidates(condition, state),
        "action": "scan" if candidates is None else "index",
        "candidates": None if candidates is None else len(candidates),
    })
    return candidates


def _plan_candidates_cost(
    condition: _Condition, state: _DomainState
) -> _CostPlan:
    """The cost-based planner: estimate first, then decide.

    An unindexable tree scans, as before.  An indexable tree whose root
    estimate reaches :func:`_cost_scan_threshold` *also* scans: the same
    half-open range is indexed in a domain where it is selective and
    scanned in one where it is not, instead of cutting over at a
    hard-coded fraction either way."""
    threshold = _cost_scan_threshold(state)
    estimate = _estimate_candidates(condition, state)
    if estimate is None:
        return _CostPlan(candidates=None, estimate=None)
    if estimate >= threshold:
        return _CostPlan(candidates=None, estimate=estimate, bailed_out=True)
    plan = _CostPlan(candidates=None, estimate=estimate)
    plan.candidates = _cost_materialize(condition, state, threshold, plan)
    if plan.candidates is not None and len(plan.candidates) >= max(
        threshold, 1
    ):
        # The estimate undershot (skewed value sets): the materialized
        # walk is scan-sized after all, so scan — cheaper and identical.
        plan.candidates = None
        plan.bailed_out = True
    return plan


# --------------------------------------------------------------------------
# The service
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectPage:
    """One page of Select results."""

    rows: List[Tuple[str, ItemAttributes]]
    next_token: str

    @property
    def complete(self) -> bool:
        return not self.next_token


@dataclass
class SelectEngineStats:
    """How select chains were answered (diagnostics for tests/benchmarks).

    One chain = one expression run to completion through its next-token
    pages; the match set is computed once, at the first page.
    """

    #: Chains whose WHERE tree yielded an index candidate set.
    indexed: int = 0
    #: Chains with a WHERE clause the planner could not index.
    scanned: int = 0
    #: Chains with no WHERE clause (``select * from d`` — always a scan).
    unconditional: int = 0
    #: Snapshots garbage-collected after the TTL elapsed untouched.
    snapshots_expired: int = 0
    #: Pages that resumed an *expired* snapshot token by re-matching the
    #: domain at the page's own observation time (the clean fallback).
    expired_token_rematches: int = 0
    #: Select chains started per domain (first pages only, not
    #: continuation pages) — the per-shard request counter the sharded
    #: query engine's routing tests assert against.
    chains_by_domain: Dict[str, int] = field(default_factory=dict)
    #: Index entries removed after a DeleteAttributes fully propagated.
    unindexed_pruned: int = 0
    #: Chains the cost model sent to scan because the estimated
    #: candidate walk priced at or above the scan threshold.
    cost_bailouts: int = 0
    #: AND conjuncts the cost model left to verification instead of
    #: intersecting (their estimate outweighed the running set).
    and_sides_skipped: int = 0

    def note_chain(self, domain: str) -> None:
        self.chains_by_domain[domain] = self.chains_by_domain.get(domain, 0) + 1


@dataclass(frozen=True)
class AttributeSelectivity:
    """One attribute's selectivity statistics, as the planner sees them.

    Maintained incrementally at write time (``note_pairs``) and on
    delete-driven pruning — reading them is O(1), which is what lets
    the cost model consult them on every select chain."""

    attribute: str
    #: Distinct indexed values.
    distinct_values: int
    #: Total index entries (sum of the value sets' sizes).
    postings: int
    #: log2-bucketed histogram of value-set sizes: bucket ``b`` counts
    #: values held by ``2**(b-1) .. 2**b - 1`` items.
    set_size_histogram: Dict[int, int]

    @property
    def mean_set_size(self) -> float:
        if not self.distinct_values:
            return 0.0
        return self.postings / self.distinct_values


def _pairs_size(pairs: Sequence[Tuple[str, str]]) -> int:
    return sum(len(a.encode()) + len(v.encode()) for a, v in pairs)


def _attributes_size(version: WriteVersion[PackedAttributes]) -> int:
    """Response bytes of one stored version's attributes, computed on
    first use and kept on the version (stored values are immutable
    tuples).  An attribute's name counts once, however many values it
    holds; a name occurs in one group of the packed tuple only."""
    size = version.size
    if size is None:
        packed = version.value
        size = version.size = sum(map(len, set(packed[::2]))) + sum(
            map(len, packed[1::2])
        )
    return size


@dataclass
class _SelectSnapshot:
    """One live chain's materialized match list, each row's response
    size beside it, plus its GC clock."""

    matches: List[Tuple[str, ItemAttributes]]
    sizes: List[int]
    last_used_at: float


class SimpleDBService:
    """In-process SimpleDB stand-in."""

    service_name = "simpledb"

    def __init__(
        self,
        scheduler: ParallelScheduler,
        profile: ServiceProfile,
        billing: BillingMeter,
        consistency: Optional[ConsistencyEngine] = None,
        use_indexes: bool = True,
        telemetry=None,
    ):
        self._scheduler = scheduler
        self._profile = profile
        self._billing = billing
        self._consistency = consistency or ConsistencyEngine()
        self._domains: Dict[str, _DomainState] = {}
        #: When false the planner is bypassed and every select chain
        #: scans — the regression baseline.  Indexes are maintained
        #: either way, so the flag can be toggled mid-run.
        self.use_indexes = use_indexes
        self.select_stats = SelectEngineStats()
        self._telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            stats = self.select_stats
            metrics.gauge_fn("sdb.select.indexed", lambda: stats.indexed)
            metrics.gauge_fn("sdb.select.scanned", lambda: stats.scanned)
            metrics.gauge_fn(
                "sdb.select.unconditional", lambda: stats.unconditional
            )
            metrics.gauge_fn(
                "sdb.select.cost_bailouts", lambda: stats.cost_bailouts
            )
            metrics.gauge_fn(
                "sdb.select.and_sides_skipped",
                lambda: stats.and_sides_skipped,
            )
            # Not the bound method: that would make a cycle with ``self``.
            domains = self._domains
            metrics.gauge_fn(
                "sdb.index.memory_bytes",
                lambda: sum(state.memory_bytes() for state in domains.values()),
            )
        #: Snapshot id -> the chain's materialized match list; created at
        #: a chain's first page, dropped at its last — or expired by
        #: :meth:`_expire_snapshots` once untouched past the TTL.
        self._select_snapshots: Dict[int, _SelectSnapshot] = {}
        self._snapshot_seq = 0

    @property
    def profile(self) -> ServiceProfile:
        return self._profile

    def create_domain(self, domain: str) -> None:
        """Create a domain (idempotent, free)."""
        if domain not in self._domains:
            self._domains[domain] = _DomainState()

    def _domain(self, domain: str) -> _DomainState:
        try:
            return self._domains[domain]
        except KeyError:
            raise NoSuchDomainError(f"domain {domain!r} does not exist") from None

    # -- request builders ----------------------------------------------------

    def batch_put_request(
        self, domain: str, items: Sequence[ItemPut], replace: bool = False
    ) -> Request:
        """Build a ``BatchPutAttributes`` request (≤ 25 items).

        With ``replace=False`` (SimpleDB default) new values are appended
        to existing multi-valued attributes; with ``replace=True`` each
        named attribute is overwritten.
        """
        if not items:
            raise InvalidRequestError("BatchPutAttributes requires at least one item")
        if len(items) > BATCH_PUT_LIMIT:
            raise LimitExceededError(
                f"BatchPutAttributes limited to {BATCH_PUT_LIMIT} items, got {len(items)}"
            )
        self._validate_items(items)
        state = self._domain(domain)
        payload = sum(_pairs_size(pairs) + len(name.encode()) for name, pairs in items)
        item_count = len(items)
        # The service's per-unit cost scales with attribute-value pairs
        # (each one is indexed), not with item count.
        attr_pairs = sum(len(pairs) for _, pairs in items)

        def apply(start: float, finish: float) -> None:
            for name, pairs in items:
                self._merge_item(state, name, pairs, replace, finish)
            self._billing.record(
                "simpledb", "BatchPutAttributes", bytes_in=payload, items=attr_pairs
            )

        return Request(
            profile=self._profile,
            apply=apply,
            payload_bytes=payload,
            items=attr_pairs,
            indexer_key=f"simpledb:{domain}",
            label=f"sdb.BatchPut {domain} x{item_count}",
        )

    def put_request(
        self,
        domain: str,
        item: str,
        pairs: Sequence[Tuple[str, str]],
        replace: bool = False,
    ) -> Request:
        """Build a single-item ``PutAttributes`` request."""
        self._validate_items([(item, pairs)])
        state = self._domain(domain)
        payload = _pairs_size(pairs) + len(item.encode())

        def apply(start: float, finish: float) -> None:
            self._merge_item(state, item, pairs, replace, finish)
            self._billing.record(
                "simpledb", "PutAttributes", bytes_in=payload, items=len(pairs)
            )

        return Request(
            profile=self._profile,
            apply=apply,
            payload_bytes=payload,
            items=len(pairs),
            indexer_key=f"simpledb:{domain}",
            label=f"sdb.Put {domain}/{item}",
        )

    def delete_request(
        self,
        domain: str,
        item: str,
        attributes: Optional[Sequence[Union[str, Tuple[str, str]]]] = None,
    ) -> Request:
        """Build a ``DeleteAttributes`` request.

        With ``attributes=None`` (the default) the whole item is
        deleted: a deletion tombstone is written and, once it
        propagates, the item disappears from gets and selects.  Each
        entry of ``attributes`` may be an attribute name (delete every
        value of that attribute) or an ``(attribute, value)`` pair
        (delete that one value); deleting an item's last attribute
        deletes the item, as in the real service.

        Either way the deleted pairs are *scheduled* for removal from
        the secondary indexes at the deleting write's visibility time —
        not before, because an eventually-consistent read inside the
        propagation window can still observe the old values, and the
        planner's candidate sets must stay supersets of what any
        observation time can see.  Until the pruning fires, ``_observe``
        filters the deleted values out of every candidate set, so
        indexed and scanned selects agree throughout."""
        state = self._domain(domain)
        payload = len(item.encode())
        if attributes:
            for spec in attributes:
                if isinstance(spec, str):
                    payload += len(spec.encode())
                else:
                    payload += len(spec[0].encode()) + len(spec[1].encode())

        def apply(start: float, finish: float) -> None:
            register = state.registry.get(item)
            if register is not None:
                latest = register.read_latest_committed(finish)
                current: ItemAttributes = {}
                if latest is not None and not latest.deleted and latest.value:
                    current = _unpack(latest.value)
                visible = self._consistency.visibility_for(finish)
                removed: List[Tuple[str, str]] = []
                # Truthiness, not an is-None check, so an empty spec
                # list agrees with the payload branch and means a
                # whole-item delete rather than a silent item rewrite.
                if not attributes:
                    removed = [
                        (a, v) for a, vals in current.items() for v in vals
                    ]
                    current = {}
                else:
                    for spec in attributes:
                        if isinstance(spec, str):
                            for value in current.pop(spec, []):
                                removed.append((spec, value))
                        else:
                            attr, value = spec
                            values = current.get(attr, [])
                            if value in values:
                                values.remove(value)
                                removed.append((attr, value))
                            if not values:
                                current.pop(attr, None)
                if current:
                    register.write(_pack(current), finish, visible)
                else:
                    register.delete(finish, visible)
                state.schedule_unindex(item, removed, visible)
            # Deleting an absent item is a billable no-op (idempotent).
            self._billing.record("simpledb", "DeleteAttributes", bytes_in=payload)

        return Request(
            profile=self._profile,
            apply=apply,
            payload_bytes=payload,
            label=f"sdb.Delete {domain}/{item}",
        )

    def get_request(self, domain: str, item: str) -> Request:
        """Build a ``GetAttributes`` request; resolves to the item's
        attributes (empty dict if the item is absent or not yet visible)."""
        state = self._domain(domain)

        def apply(start: float, finish: float) -> ItemAttributes:
            version = self._observe(state.registry, item, start)
            if version is None:
                size, packed = 0, ()
            else:
                size, packed = _attributes_size(version), version.value
            self._billing.record("simpledb", "GetAttributes", bytes_out=size)
            return _unpack(packed)

        return Request(
            profile=self._profile,
            apply=apply,
            read_only=True,
            label=f"sdb.Get {domain}/{item}",
        )

    def select_request(
        self, expression: Union[str, PreparedSelect], next_token: str = ""
    ) -> Request:
        """Build one ``Select`` page request; resolves to
        :class:`SelectPage`.  Pages must be fetched sequentially — each
        next-token comes from the previous page (the reason the paper's Q1
        cannot be parallelized on SimpleDB).

        ``expression`` may be a raw string (parsed through the LRU cache)
        or a :class:`PreparedSelect` reused across the whole chain.  The
        first page plans the query — index candidates when the WHERE tree
        allows, full scan otherwise — materializes the match list once,
        and issues a snapshot token; continuation pages serve from the
        snapshot instead of re-matching the domain."""
        prepared = (
            expression
            if isinstance(expression, PreparedSelect)
            else prepare_select(expression)
        )
        state = self._domain(prepared.domain)
        condition = prepared.condition

        def apply(start: float, finish: float) -> SelectPage:
            self._expire_snapshots(start)
            if not next_token:
                self.select_stats.note_chain(prepared.domain)
            snapshot_id: Optional[int] = None
            if next_token:
                snapshot_id, offset, matches, sizes = self._resume_select(
                    next_token, state, condition, start
                )
            else:
                offset = 0
                matches, sizes = self._match_rows(state, condition, start)
            page = matches[offset : offset + SELECT_PAGE_ITEMS]
            done = offset + SELECT_PAGE_ITEMS >= len(matches)
            if done:
                token = ""
                if snapshot_id is not None:
                    self._select_snapshots.pop(snapshot_id, None)
            else:
                if snapshot_id is None:
                    self._snapshot_seq += 1
                    snapshot_id = self._snapshot_seq
                    self._select_snapshots[snapshot_id] = _SelectSnapshot(
                        matches=matches, sizes=sizes, last_used_at=start
                    )
                token = f"snap-{snapshot_id}:{offset + SELECT_PAGE_ITEMS}"
            size = sum(sizes[offset : offset + SELECT_PAGE_ITEMS])
            self._billing.record("simpledb", "Select", bytes_out=size)
            return SelectPage(rows=page, next_token=token)

        return Request(
            profile=self._profile,
            apply=apply,
            response_bytes=0,
            read_only=True,
            label=f"sdb.Select {prepared.expression[:60]}",
        )

    # -- sequential conveniences ----------------------------------------------

    def batch_put(
        self, domain: str, items: Sequence[ItemPut], replace: bool = False
    ) -> None:
        self._scheduler.execute_one(self.batch_put_request(domain, items, replace))

    def put_attributes(
        self,
        domain: str,
        item: str,
        pairs: Sequence[Tuple[str, str]],
        replace: bool = False,
    ) -> None:
        self._scheduler.execute_one(self.put_request(domain, item, pairs, replace))

    def get_attributes(self, domain: str, item: str) -> ItemAttributes:
        return self._scheduler.execute_one(self.get_request(domain, item))

    def delete_attributes(
        self,
        domain: str,
        item: str,
        attributes: Optional[Sequence[Union[str, Tuple[str, str]]]] = None,
    ) -> None:
        self._scheduler.execute_one(
            self.delete_request(domain, item, attributes)
        )

    def select(
        self, expression: Union[str, PreparedSelect]
    ) -> List[Tuple[str, ItemAttributes]]:
        """Run a Select to completion, following next-tokens sequentially.
        The expression is parsed/planned once and the one
        :class:`PreparedSelect` is reused across the page chain."""
        prepared = (
            expression
            if isinstance(expression, PreparedSelect)
            else prepare_select(expression)
        )
        rows: List[Tuple[str, ItemAttributes]] = []
        token = ""
        while True:
            page: SelectPage = self._scheduler.execute_one(
                self.select_request(prepared, token)
            )
            rows.extend(page.rows)
            if page.complete:
                return rows
            token = page.next_token

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _validate_items(items: Sequence[ItemPut]) -> None:
        for name, pairs in items:
            if not name:
                raise InvalidRequestError("item name must be non-empty")
            if len(name.encode()) > ATTRIBUTE_LIMIT_BYTES:
                raise LimitExceededError(f"item name {name[:32]!r}... exceeds 1 KB")
            if len(pairs) > ITEM_ATTRIBUTE_LIMIT:
                raise LimitExceededError(
                    f"item {name!r} has {len(pairs)} attribute pairs (limit "
                    f"{ITEM_ATTRIBUTE_LIMIT})"
                )
            for attribute, value in pairs:
                if len(attribute.encode()) > ATTRIBUTE_LIMIT_BYTES:
                    raise LimitExceededError(
                        f"attribute name {attribute[:32]!r}... exceeds 1 KB"
                    )
                if len(value.encode()) > ATTRIBUTE_LIMIT_BYTES:
                    raise LimitExceededError(
                        f"value of {attribute!r} exceeds 1 KB ({len(value)} bytes); "
                        "spill it to S3"
                    )

    def _merge_item(
        self,
        state: _DomainState,
        name: str,
        pairs: Sequence[Tuple[str, str]],
        replace: bool,
        committed_at: float,
    ) -> None:
        # Intern attribute names and values: provenance traffic repeats
        # the same small vocabulary (type/name/input/...) across millions
        # of items, and the registry, hash indexes, and sorted-value
        # lists all hold references to the same pair strings — one
        # canonical object per distinct string instead of one copy per
        # write (``index_memory_bytes`` gauges the footprint).
        pairs = [
            (sys.intern(attribute), sys.intern(value))
            for attribute, value in pairs
        ]
        register = state.registry.get(name)
        if register is None:
            state.add_name(name)
            register = state.registry.setdefault(name, VersionedRegister())
        latest = register.read_latest_committed(committed_at)
        current: ItemAttributes = {}
        if latest is not None and not latest.deleted and latest.value:
            current = _unpack(latest.value)
        if replace:
            for attribute, _ in pairs:
                current.pop(attribute, None)
        for attribute, value in pairs:
            # An attribute's values form a set: re-putting an existing
            # pair is a no-op, which is what makes the commit daemon's
            # re-issued writes idempotent (§4.3.3).
            values = current.setdefault(attribute, [])
            if value not in values:
                values.append(value)
        # Index the incoming pairs (set semantics: re-puts are no-ops;
        # earlier versions' values are already indexed, so the index stays
        # a superset of what any observation time can see).
        state.note_pairs(name, pairs)
        visible = self._consistency.visibility_for(committed_at)
        register.write(_pack(current), committed_at, visible)
        if self._telemetry is not None:
            # O(1) dict probe: only items pre-registered as trace aliases
            # (P3 txn items) land a mark; bulk workloads pay nothing.
            self._telemetry.tracer.mark_if_traced(name, SDB_VISIBLE, visible)

    def _match_rows(
        self,
        state: _DomainState,
        condition: Optional[_Condition],
        start: float,
        count_stats: bool = True,
    ) -> Tuple[List[Tuple[str, ItemAttributes]], List[int]]:
        """Materialize a select chain's full match list, in item-name
        order, as observed at time ``start``, and each row's response
        size (what a page bills for it).

        The planner narrows the walk to index candidates when it can;
        either way every surviving name goes through the same
        ``_observe`` + condition verification, so the indexed and scan
        paths return byte-identical rows.  ``count_stats`` is false for
        expired-token re-matches, which are continuation pages of a chain
        already counted."""
        # Apply any DeleteAttributes un-indexing whose propagation window
        # has fully elapsed by this observation time.  Pruning never
        # changes answers (candidates are verified either way); it keeps
        # range and equality candidate sets from accreting dead values.
        self.select_stats.unindexed_pruned += state.prune_unindexed(start)
        candidates: Optional[Collection] = None
        if condition is None:
            if count_stats:
                self.select_stats.unconditional += 1
        elif self.use_indexes:
            plan = _plan_candidates_cost(condition, state)
            candidates = plan.candidates
            if count_stats:
                self.select_stats.and_sides_skipped += plan.sides_skipped
                if plan.bailed_out:
                    self.select_stats.cost_bailouts += 1
                if candidates is None:
                    self.select_stats.scanned += 1
                else:
                    self.select_stats.indexed += 1
        elif count_stats:
            self.select_stats.scanned += 1
        names: Sequence[str] = (
            state.ordered_names()
            if candidates is None
            else state.names_of(candidates)
        )
        matches: List[Tuple[str, ItemAttributes]] = []
        sizes: List[int] = []
        for name in names:
            version = self._observe(state.registry, name, start)
            if version is None:
                continue
            packed = version.value
            if condition is None or condition.matches(name, packed):
                matches.append((name, _unpack(packed)))
                sizes.append(len(name) + _attributes_size(version))
        return matches, sizes

    def _resume_select(
        self,
        token: str,
        state: _DomainState,
        condition: Optional[_Condition],
        start: float,
    ) -> Tuple[Optional[int], int, List[Tuple[str, ItemAttributes]], List[int]]:
        """Resolve a ``snap-<id>:<offset>`` continuation token (both
        parts ASCII digits) to (snapshot id, offset, match list, row
        sizes).  A token whose snapshot is gone — the TTL collected an
        abandoned chain, or a client replays a token from a chain that
        already completed (the snapshot is popped at the final page;
        distinguishing the two would mean remembering every completed
        chain forever, the very leak the GC removes) — re-matches the
        domain at this page's observation time and continues from the
        offset, degrading to per-page semantics instead of failing.
        Malformed tokens and tokens naming a snapshot that was *never
        issued* are rejected."""
        parsed = _SNAPSHOT_TOKEN.fullmatch(token)
        if parsed is None:
            raise InvalidRequestError(f"malformed select token {token!r}")
        snapshot_id, offset = int(parsed[1]), int(parsed[2])
        snapshot = self._select_snapshots.get(snapshot_id)
        if snapshot is None:
            if not 1 <= snapshot_id <= self._snapshot_seq:
                raise InvalidRequestError(
                    f"select token {token!r} was never issued"
                )
            self.select_stats.expired_token_rematches += 1
            return (None, offset) + self._match_rows(
                state, condition, start, count_stats=False
            )
        snapshot.last_used_at = start
        return snapshot_id, offset, snapshot.matches, snapshot.sizes

    def _expire_snapshots(self, now: float) -> None:
        """Drop snapshots untouched for the TTL — virtual-time GC of
        abandoned chains, mirroring SQS's in-flight expiry.  Long fleet
        runs with crashed or lazy readers stop leaking match sets."""
        cutoff = now - SELECT_SNAPSHOT_TTL_SECONDS
        stale = [
            snapshot_id
            for snapshot_id, snapshot in self._select_snapshots.items()
            if snapshot.last_used_at < cutoff
        ]
        for snapshot_id in stale:
            del self._select_snapshots[snapshot_id]
        self.select_stats.snapshots_expired += len(stale)

    def _observe(
        self,
        registry: Dict[str, VersionedRegister[PackedAttributes]],
        name: str,
        at: float,
    ) -> Optional[WriteVersion[PackedAttributes]]:
        """The version of ``name`` observable at ``at`` when it holds
        attributes — ``None`` for an absent, not yet visible or deleted
        item."""
        register = registry.get(name)
        if register is None:
            return None
        version = register.read(at, self._consistency.model)
        if version is None or version.deleted or not version.value:
            return None
        return version

    # -- planner diagnostics -----------------------------------------------------

    def explain(
        self, expression: Union[str, PreparedSelect]
    ) -> Dict[str, object]:
        """Dry-run the planner on a select expression and dump the plan.

        Returns a JSON-able dict: the decision (``index`` / ``scan`` /
        ``unconditional-scan``), the root selectivity estimate, the
        scan threshold it was priced against, and — for the cost
        planner — one node per comparison with its estimate and chosen
        action (``index``, ``scan``, or ``verify-only`` for AND sides
        left to verification).  Purely diagnostic: no stats counters
        move, no snapshot is created, nothing is billed."""
        prepared = (
            expression
            if isinstance(expression, PreparedSelect)
            else prepare_select(expression)
        )
        state = self._domain(prepared.domain)
        condition = prepared.condition
        out: Dict[str, object] = {
            "domain": prepared.domain,
            "planner": "cost" if self.use_indexes else "scan",
            "domain_items": len(state.names),
            "scan_threshold": _cost_scan_threshold(state),
        }
        if condition is None:
            out["decision"] = "unconditional-scan"
            return out
        if not self.use_indexes:
            out["decision"] = "scan"
            return out
        plan = _plan_candidates_cost(condition, state)
        out["decision"] = "scan" if plan.candidates is None else "index"
        out["estimated_candidates"] = plan.estimate
        out["candidates"] = (
            None if plan.candidates is None else len(plan.candidates)
        )
        out["cost_bailout"] = plan.bailed_out
        out["and_sides_skipped"] = plan.sides_skipped
        out["nodes"] = plan.nodes
        return out

    def selectivity(self, domain: str, attribute: str) -> AttributeSelectivity:
        """The write-time selectivity statistics of one attribute —
        exactly what the cost model consults (O(1) reads)."""
        state = self._domains.get(domain)
        if state is None:
            return AttributeSelectivity(attribute, 0, 0, {})
        return AttributeSelectivity(
            attribute=attribute,
            distinct_values=state.distinct_value_count(attribute),
            postings=state.attr_postings.get(attribute, 0),
            set_size_histogram=dict(state.set_size_hist.get(attribute, {})),
        )

    def index_memory_bytes(self) -> int:
        """Approximate heap footprint of the secondary indexes across
        all domains (container overhead, posting arrays, one count of
        each distinct string — interning makes the index share string
        objects with the registry — plus the pending-unindex queue and
        the selectivity statistics, inner containers included).  Feeds
        the ``sdb.index.memory_bytes`` gauge, so benchmarks can chart
        bytes-per-item beside wall clock."""
        return sum(
            state.memory_bytes() for state in self._domains.values()
        )

    # -- omniscient inspection (tests & property checkers only) -----------------

    def peek_item(self, domain: str, item: str) -> ItemAttributes:
        """Fully propagated item state (tests only)."""
        state = self._domains.get(domain)
        register = state.registry.get(item) if state is not None else None
        if register is None:
            return {}
        version = register.read_latest_committed(float("inf"))
        if version is None or version.deleted or version.value is None:
            return {}
        return _unpack(version.value)

    def peek_item_names(self, domain: str) -> List[str]:
        """All item names with visible-eventually state (tests only)."""
        state = self._domains.get(domain)
        if state is None:
            return []
        names = []
        for name, register in state.registry.items():
            version = register.read_latest_committed(float("inf"))
            if version is not None and not version.deleted and version.value:
                names.append(name)
        return sorted(names)

    def index_cardinality(self, domain: str, attribute: str, value: str) -> int:
        """How many item names the secondary index holds for
        ``attribute = value`` (tests & planner diagnostics).  Set
        semantics: idempotent re-puts must not grow this."""
        state = self._domains.get(domain)
        if state is None:
            return 0
        return len(state.names_with(attribute, value))

    def sorted_index_values(self, domain: str, attribute: str) -> List[str]:
        """The sorted distinct values the range index currently holds
        for ``attribute`` (tests & planner diagnostics).  Values whose
        ``DeleteAttributes`` has propagated — and whose last holder was
        pruned by a subsequent select — no longer appear."""
        state = self._domains.get(domain)
        if state is None:
            return []
        return list(state.ordered_values(attribute))
