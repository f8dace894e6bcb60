"""Message envelopes: the {src, tag, comm} matching tuple.

MPI matches messages to receive requests on the triple *(source rank, tag,
communicator)*; receives may wildcard the source (``MPI_ANY_SOURCE``) and
the tag (``MPI_ANY_TAG``).  The trace analysis (Section IV) observes that
no proxy application needs tags wider than 16 bits, so *"together with the
32-bit value for the source and some bits for the communicator, the entire
header could fit into a single 64-bit word"* -- :func:`pack_keys` implements
exactly that layout (:func:`pack64` is its checked scalar form), and the
SIMT kernels compare packed words with a single 64-bit ALU instruction.

Two representations are provided:

* :class:`Envelope` -- a frozen scalar tuple for the scalar/MPI layers.
* :class:`EnvelopeBatch` -- a struct-of-arrays batch for the vectorized
  SIMT kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_SRC",
    "MAX_TAG",
    "MAX_COMM",
    "Envelope",
    "EnvelopeBatch",
    "pack64",
    "pack_keys",
    "unpack64",
]

#: Wildcard source rank (``MPI_ANY_SOURCE``).
ANY_SOURCE = -1

#: Wildcard tag (``MPI_ANY_TAG``).
ANY_TAG = -1

#: Largest representable source rank (32 bits, per the paper's header layout).
MAX_SRC = 2**32 - 1

#: Largest representable tag (16 bits; no analyzed app exceeds this).
MAX_TAG = 2**16 - 1

#: Largest representable communicator id (remaining 16 bits of the word).
MAX_COMM = 2**16 - 1


#: The low 64 bits of an int: an int64 key word read unsigned.
_WORD = 2**64 - 1

#: The one zero-length column every :meth:`EnvelopeBatch.empty` shares;
#: read-only, so an in-place write raises instead of aliasing batches.
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def pack_keys(src, tag, comm) -> np.ndarray:
    """The packed64 key of each ``(src, tag, comm)``, unchecked.

    The one place the header layout (most- to least-significant
    ``comm:16 | src:32 | tag:16``) is written out.  Takes integer
    columns or scalars and returns the 64-bit words as int64, so a comm
    of ``2**15`` or more reads negative.  Fields must lie within their
    widths (a wider one spills into its neighbour); a wildcard lane
    packs to a word that names no tuple.
    """
    def bits(col) -> np.ndarray:   # no copy of an int64 column
        return np.asarray(col, dtype=np.int64).view(np.uint64)

    return ((bits(comm) << np.uint64(48)) | (bits(src) << np.uint64(16))
            | bits(tag)).view(np.int64)


def pack64(src: int, tag: int, comm: int = 0) -> int:
    """Pack a concrete (non-wildcard) matching tuple into one 64-bit word.

    :func:`pack_keys` after a range check, read unsigned.

    >>> hex(pack64(src=2, tag=3, comm=1))
    '0x1000000020003'
    """
    if not 0 <= src <= MAX_SRC:
        raise ValueError(f"src out of range: {src}")
    if not 0 <= tag <= MAX_TAG:
        raise ValueError(f"tag out of range: {tag}")
    if not 0 <= comm <= MAX_COMM:
        raise ValueError(f"comm out of range: {comm}")
    return int(pack_keys(src, tag, comm)) & _WORD


def unpack64(word: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack64`; returns ``(src, tag, comm)``.

    Takes the word unsigned or as the int64 that :func:`pack_keys`
    and :meth:`EnvelopeBatch.packed` hold.
    """
    if not -2**63 <= word < 2**64:
        raise ValueError("word must be a 64-bit value")
    word &= _WORD
    return ((word >> 16) & MAX_SRC, word & MAX_TAG, (word >> 48) & MAX_COMM)


@dataclass(frozen=True, order=True)
class Envelope:
    """A scalar matching tuple.

    On the *message* side all fields are concrete.  On the *receive
    request* side ``src`` may be :data:`ANY_SOURCE` and ``tag`` may be
    :data:`ANY_TAG`; the communicator can never be wildcarded (MPI has no
    ``MPI_ANY_COMM``).
    """

    src: int
    tag: int
    comm: int = 0

    def __post_init__(self) -> None:
        if self.src < ANY_SOURCE or self.src > MAX_SRC:
            raise ValueError(f"invalid src {self.src}")
        if self.tag < ANY_TAG or self.tag > MAX_TAG:
            raise ValueError(f"invalid tag {self.tag}")
        if not 0 <= self.comm <= MAX_COMM:
            raise ValueError(f"invalid comm {self.comm}")

    @property
    def has_wildcard(self) -> bool:
        """True if either src or tag is wildcarded."""
        return self.src == ANY_SOURCE or self.tag == ANY_TAG

    def accepts(self, message: "Envelope") -> bool:
        """Does this *request* envelope match the given *message* envelope?

        The message side must be concrete; wildcards only have meaning on
        the request side.
        """
        if message.has_wildcard:
            raise ValueError("message envelopes cannot carry wildcards")
        if self.comm != message.comm:
            return False
        if self.src != ANY_SOURCE and self.src != message.src:
            return False
        if self.tag != ANY_TAG and self.tag != message.tag:
            return False
        return True

    def packed(self) -> int:
        """64-bit packed form; only valid for concrete envelopes."""
        if self.has_wildcard:
            raise ValueError("cannot pack a wildcarded envelope")
        return pack64(self.src, self.tag, self.comm)

    @classmethod
    def from_packed(cls, word: int) -> "Envelope":
        """Rebuild an envelope from its 64-bit packed form (unsigned, or
        the int64 word :meth:`EnvelopeBatch.packed` holds)."""
        src, tag, comm = unpack64(word)
        return cls(src=src, tag=tag, comm=comm)


class EnvelopeBatch:
    """A struct-of-arrays batch of envelopes for vectorized kernels.

    Fields are int64 arrays; wildcards are the value ``-1``.  Batches are
    immutable-by-convention: kernels index them but never write.

    A batch may carry its **packed64 key column** (``_packed``): computed
    lazily by :meth:`packed` and propagated through :meth:`view`,
    :meth:`take`, slicing, and :meth:`concatenate`, so a column that was
    packed once at the loadgen boundary is never re-packed anywhere
    downstream -- the serve layer's zero-re-marshalling contract.

    Parameters
    ----------
    src, tag, comm:
        Integer sequences of equal length.
    """

    __slots__ = ("src", "tag", "comm", "_packed")

    def __init__(self, src: Sequence[int] | np.ndarray,
                 tag: Sequence[int] | np.ndarray,
                 comm: Sequence[int] | np.ndarray | None = None) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.tag = np.asarray(tag, dtype=np.int64)
        if comm is None:
            self.comm = np.zeros_like(self.src)
        else:
            self.comm = np.asarray(comm, dtype=np.int64)
        self._packed: np.ndarray | None = None
        if not (self.src.shape == self.tag.shape == self.comm.shape):
            raise ValueError("src/tag/comm must have identical shapes")
        if self.src.ndim != 1:
            raise ValueError("EnvelopeBatch fields must be 1-D")
        if (self.src < ANY_SOURCE).any() or (self.tag < ANY_TAG).any():
            raise ValueError("fields below the wildcard value are invalid")
        if (self.comm < 0).any():
            raise ValueError("communicators cannot be negative or wildcarded")
        if ((self.src > MAX_SRC).any() or (self.tag > MAX_TAG).any()
                or (self.comm > MAX_COMM).any()):
            raise ValueError("fields exceed the packed header's widths")

    # -- construction ---------------------------------------------------------

    @classmethod
    def view(cls, src: np.ndarray, tag: np.ndarray, comm: np.ndarray,
             packed: np.ndarray | None = None) -> "EnvelopeBatch":
        """Trusted zero-copy constructor: adopt columns without validation.

        The caller guarantees the columns are 1-D int64 arrays of equal
        length that would pass ``__init__`` validation (slices of an
        already-validated batch, columns built by the trace loadgen).
        ``packed`` optionally carries the matching packed64 key column.
        This is the hot-path constructor: per-item and per-slice
        validation scans are exactly the re-marshalling cost the
        columnar data plane removes.
        """
        batch = cls.__new__(cls)
        batch.src = src
        batch.tag = tag
        batch.comm = comm
        batch._packed = packed
        return batch

    @classmethod
    def from_envelopes(cls, envelopes: Iterable[Envelope]) -> "EnvelopeBatch":
        """Build a batch from scalar envelopes (order preserved)."""
        envs = list(envelopes)
        return cls(src=[e.src for e in envs], tag=[e.tag for e in envs],
                   comm=[e.comm for e in envs])

    @classmethod
    def empty(cls) -> "EnvelopeBatch":
        """A zero-length batch (nothing to validate, so a :meth:`view`)."""
        return cls.view(_EMPTY, _EMPTY, _EMPTY)

    # -- snapshot format -------------------------------------------------------

    def state_dict(self) -> dict:
        """Columns for the serve snapshot codec, **including** the lazily
        cached packed64 key column when present.

        Carrying the cache through a snapshot is part of the columnar
        data plane's zero-re-marshalling contract: a restored batch must
        never silently re-pack what the loadgen packed before the
        checkpoint (pinned by ``tests/serve/test_state.py``).
        """
        return {"src": self.src, "tag": self.tag, "comm": self.comm,
                "packed": self._packed}

    @classmethod
    def from_state_dict(cls, state: dict) -> "EnvelopeBatch":
        """Rebuild a batch (and its packed-key cache) from
        :meth:`state_dict` columns."""
        return cls.view(np.asarray(state["src"], dtype=np.int64),
                        np.asarray(state["tag"], dtype=np.int64),
                        np.asarray(state["comm"], dtype=np.int64),
                        packed=(None if state["packed"] is None
                                else np.asarray(state["packed"],
                                                dtype=np.int64)))

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.src.size)

    def __getitem__(self, index) -> "Envelope | EnvelopeBatch":
        if isinstance(index, (int, np.integer)):
            return Envelope(src=int(self.src[index]), tag=int(self.tag[index]),
                            comm=int(self.comm[index]))
        return EnvelopeBatch.view(
            self.src[index], self.tag[index], self.comm[index],
            packed=None if self._packed is None else self._packed[index])

    def __iter__(self) -> Iterator[Envelope]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnvelopeBatch):
            return NotImplemented
        return (np.array_equal(self.src, other.src)
                and np.array_equal(self.tag, other.tag)
                and np.array_equal(self.comm, other.comm))

    def __repr__(self) -> str:
        return f"EnvelopeBatch(n={len(self)})"

    # -- queries ---------------------------------------------------------------

    @property
    def has_wildcards(self) -> bool:
        """True if any entry wildcards src or tag."""
        return bool((self.src == ANY_SOURCE).any() or (self.tag == ANY_TAG).any())

    def wildcard_mask(self) -> np.ndarray:
        """Boolean mask of entries carrying any wildcard."""
        return (self.src == ANY_SOURCE) | (self.tag == ANY_TAG)

    def assert_concrete(self, what: str = "batch") -> None:
        """Raise if the batch contains wildcards (message-side validation)."""
        if self.has_wildcards:
            raise ValueError(f"{what} must not contain wildcards")

    def packed(self) -> np.ndarray:
        """:func:`pack_keys` of the batch; requires a concrete batch.

        Holds :func:`pack64`'s bits as int64 for every comm up to
        :data:`MAX_COMM` (a comm of ``2**15`` or more reads negative).
        Each field is checked against its width: a :meth:`view`-built
        batch skips ``__init__``'s checks, and a tag of ``2**16`` would
        spill into the source field and alias another tuple's key.

        The result is cached on the batch and propagated through views
        (:meth:`view`, :meth:`take`, slicing, :meth:`concatenate`), so a
        column is packed at most once however many layers slice it.
        """
        if self._packed is None:
            self.assert_concrete("packed() input")
            if ((self.src > MAX_SRC).any() or (self.tag > MAX_TAG).any()
                    or (self.comm > MAX_COMM).any()):
                raise ValueError("field too wide for its packed width")
            self._packed = pack_keys(self.src, self.tag, self.comm)
        return self._packed

    def match_matrix(self, requests: "EnvelopeBatch") -> np.ndarray:
        """Boolean matrix ``M[i, j]`` = message *i* matches request *j*.

        ``self`` is the message side (concrete); ``requests`` may carry
        wildcards.  This is the functional content of the scan phase.
        """
        return self.match_block(requests, 0, len(self))

    def match_block(self, requests: "EnvelopeBatch", lo: int,
                    hi: int) -> np.ndarray:
        """Boolean matrix for the message slice ``[lo, hi)`` only.

        ``M[i, j]`` = message ``lo + i`` matches request ``j``.  Kernels
        that walk the message queue in fixed-size blocks use this instead
        of :meth:`match_matrix` so their peak footprint is
        O(block x n_req) rather than O(n_msg x n_req).
        """
        self.assert_concrete("message batch")
        if not 0 <= lo <= hi <= len(self):
            raise ValueError(f"invalid block [{lo}, {hi}) for a batch "
                             f"of {len(self)} messages")
        src = self.src[lo:hi]
        tag = self.tag[lo:hi]
        comm = self.comm[lo:hi]
        src_ok = ((requests.src[None, :] == ANY_SOURCE)
                  | (src[:, None] == requests.src[None, :]))
        tag_ok = ((requests.tag[None, :] == ANY_TAG)
                  | (tag[:, None] == requests.tag[None, :]))
        comm_ok = comm[:, None] == requests.comm[None, :]
        return src_ok & tag_ok & comm_ok

    def concatenate(self, other: "EnvelopeBatch") -> "EnvelopeBatch":
        """New batch with ``other`` appended (packed cache propagates
        when both sides carry one)."""
        packed = (np.concatenate([self._packed, other._packed])
                  if self._packed is not None and other._packed is not None
                  else None)
        return EnvelopeBatch.view(np.concatenate([self.src, other.src]),
                                  np.concatenate([self.tag, other.tag]),
                                  np.concatenate([self.comm, other.comm]),
                                  packed=packed)

    def take(self, indices: np.ndarray) -> "EnvelopeBatch":
        """New batch with the selected rows."""
        idx = np.asarray(indices, dtype=np.int64)
        return EnvelopeBatch.view(
            self.src[idx], self.tag[idx], self.comm[idx],
            packed=None if self._packed is None else self._packed[idx])

    @classmethod
    def random(cls, n: int, n_ranks: int = 64, n_tags: int = 16,
               comm: int = 0, rng: np.random.Generator | None = None,
               ) -> "EnvelopeBatch":
        """Random concrete batch (the paper's synthetic workloads use
        random tuples in random order)."""
        rng = rng if rng is not None else np.random.default_rng()
        return cls(src=rng.integers(0, n_ranks, size=n),
                   tag=rng.integers(0, n_tags, size=n),
                   comm=np.full(n, comm, dtype=np.int64))
