"""Frozen payloads: how a store holds a checkpoint and hashes it.

A manifest digest is the sha256 of one entry's canonical byte stream
(:func:`value_digest`).  Rebuilding that stream by walking the payload on
every validation costs far more than hashing it, so a store freezes each
payload once, when the write is issued, in one typed walk
(:func:`freeze`).  The walk yields

* store-private, C-contiguous copies of the payload's arrays;
* read-only containers: a :class:`FrozenDict` or :class:`FrozenList`
  reached through ``peek()`` raises on mutation (tuples stay tuples), so
  at rest only array bytes can change, in place;
* one :class:`Frame` per entry: the canonical byte stream with every
  array header and array body left out.  Those are read live each time
  the frame is hashed, so in-place rot of array bytes always shows.

:meth:`Frame.digest` hashes the frame and the live array bytes with one
sha256 and equals :func:`value_digest` of the tree, bit for bit.  A read
(:meth:`Framed.thaw`) builds the caller's writable, unaliased copy and
its frames in one walk, so a restore can verify the bytes it hands out.
Nothing is cached: every digest reads every byte.

Leaves of a type the walk does not know (an ``OrderedDict``, a
namedtuple, a dataclass such as a CRIU image, an object array) are
*opaque*: deep-copied, and re-encoded by the tree walk on every hash.
An array referenced twice in one payload is copied once and stays
shared, as ``copy.deepcopy`` would keep it; a container referenced
twice is frozen, and thawed, as two equal containers.
"""

from __future__ import annotations

import copy
import functools
import hashlib
from itertools import islice
from typing import Any, Mapping

import numpy as np

# -- the canonical encoding ------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _array_header(dtype: np.dtype, shape: tuple) -> bytes:
    # Keyed on the dtype itself: equal dtypes have equal ``str``, and
    # ``dtype.str`` costs more than the cache lookup.
    return b"nd:" + dtype.str.encode() + repr(shape).encode()


def _encode_array(value: np.ndarray, out: list) -> None:
    out.append(_array_header(value.dtype, value.shape))
    out.append(value.tobytes())    # C order, whatever the strides


def _encode_array_subclass(value: np.ndarray, out: list) -> None:
    # A subclass may override tobytes (a masked array fills its masked
    # slots), so hash the raw buffer through a base-class array.
    out.append(_array_header(value.dtype, value.shape))
    out.append(np.ascontiguousarray(value).tobytes())


def _encode_dict(value: dict, out: list) -> None:
    out.append(b"d{")
    for key in sorted(value, key=str):
        out.append(repr(key).encode())
        _encode(value[key], out)
    out.append(b"}")


def _encode_sequence(value, out: list) -> None:
    out.append(b"l[")
    for item in value:
        _encode(item, out)
    out.append(b"]")


def _encode_bytes(value: bytes, out: list) -> None:
    out.append(b"b:")
    out.append(value)


def _encode_repr(value: Any, out: list) -> None:
    out.append(repr(value).encode())


def _encoder_for(value: Any):
    if isinstance(value, np.ndarray):
        return _encode_array_subclass
    if isinstance(value, dict):
        return _encode_dict
    if isinstance(value, (list, tuple)):
        return _encode_sequence
    if isinstance(value, bytes):
        return _encode_bytes
    return _encode_repr


def _encode(value: Any, out: list) -> None:
    """Append one payload value's canonical byte stream to *out*."""
    (_ENCODERS.get(type(value)) or _encoder_for(value))(value, out)


def value_digest(value: Any) -> str:
    """Canonical sha256 of one payload entry (walks the tree)."""
    out: list = []
    _encode(value, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def entry_digests(payload: Mapping[str, Any]) -> dict[str, str]:
    """Per-entry digests of a checkpoint state dict (sorted keys)."""
    return {str(key): value_digest(payload[key])
            for key in sorted(payload, key=str)}


# -- read-only containers -----------------------------------------------------------


def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is read-only: a stored payload "
                    f"changes only through its store")


class FrozenDict(dict):
    """The dicts of a stored payload: every mutator raises."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (type(self), (dict(self),))


class FrozenList(list):
    """The lists of a stored payload: every mutator raises."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = _read_only
    sort = reverse = _read_only

    def __reduce__(self):
        return (type(self), (list(self),))


#: Encoder per exact payload type.  Anything else (subclasses such as
#: numpy scalars or an OrderedDict) goes through :func:`_encoder_for`.
_ENCODERS = {
    np.ndarray: _encode_array, dict: _encode_dict, list: _encode_sequence,
    tuple: _encode_sequence, bytes: _encode_bytes, str: _encode_repr,
    int: _encode_repr, float: _encode_repr, bool: _encode_repr,
    type(None): _encode_repr, FrozenDict: _encode_dict,
    FrozenList: _encode_sequence,
}


# -- frames ---------------------------------------------------------------------------


class Frame:
    """One value's canonical byte stream, its live leaves left out.

    ``lives`` holds the live leaves in stream order: arrays as
    ``(array, dtype, shape, header)``, with the dtype, shape and ``nd:``
    header the array had when the frame was built, and opaque leaves as
    ``(leaf, None, None, None)``, re-encoded whole.  ``statics`` holds the
    static bytes around them: ``statics[i]`` comes just before
    ``lives[i]``, and the last entry closes the stream.
    """

    __slots__ = ("statics", "lives")

    def __init__(self, statics: list, lives: list):
        self.statics = statics
        self.lives = lives

    def chunks(self, out: list) -> None:
        """Append the frame's byte chunks, live leaves read now, to *out*."""
        statics = self.statics
        out.append(statics[0])
        for (live, dtype, shape, header), static in zip(
                self.lives, islice(statics, 1, None)):
            if dtype is None:
                _encode(live, out)
                out.append(static)
                continue
            # The header is read live too: reuse the built one only while
            # the array still has the same dtype object and shape.
            if live.dtype is not dtype or live.shape != shape:
                header = _array_header(live.dtype, live.shape)
            out += (header, live, static)

    def digest(self) -> str:
        """sha256 of the frame plus the live leaves' current bytes."""
        chunks: list = []
        self.chunks(chunks)
        return _sha256(chunks)

    def thawed(self, memo: dict) -> "Frame":
        """This frame over the copies *memo* maps each live leaf to."""
        return Frame(self.statics, [
            (memo[id(live)] if dtype is not None else memo.get(id(live), live),
             dtype, shape, header)
            for live, dtype, shape, header in self.lives])


def _sha256(chunks: list) -> str:
    """One sha256 over byte chunks and C-contiguous arrays."""
    try:
        data = b"".join(chunks)
    except TypeError:   # strides changed through peek(): not C order
        data = b"".join([np.ascontiguousarray(c)
                         if isinstance(c, np.ndarray) else c for c in chunks])
    return hashlib.sha256(data).hexdigest()


def _cut(out: list, frame: Frame, live: tuple) -> None:
    """End the static run *out* at a live leaf of the frame being built."""
    frame.statics.append(b"".join(out))
    out.clear()
    frame.lives.append(live)


# -- freezing ---------------------------------------------------------------------------
#
# Each freezer takes the value, the static bytes since the last live
# leaf (``out``), the frame being built and the copy memo, and returns
# the frozen value.


def _freeze_repr(value, out: list, frame: Frame, memo: dict):
    out.append(repr(value).encode())
    return value


def _freeze_bytes(value: bytes, out: list, frame: Frame, memo: dict):
    out += (b"b:", value)
    return value


def _freeze_array(value: np.ndarray, out: list, frame: Frame, memo: dict):
    if value.dtype.hasobject:   # its buffer holds pointers, not data
        return _freeze_opaque(value, out, frame, memo)
    frozen = memo.get(id(value))
    if frozen is None:
        frozen = memo[id(value)] = value.copy()   # C order, subclass kept
    dtype, shape = frozen.dtype, frozen.shape
    _cut(out, frame, (frozen, dtype, shape, _array_header(dtype, shape)))
    return frozen


def _freeze_dict(value: dict, out: list, frame: Frame,
                 memo: dict) -> FrozenDict:
    out.append(b"d{")
    frozen = dict.fromkeys(value)    # keeps the caller's key order
    for key in sorted(value, key=str):
        out.append(repr(key).encode())
        item = value[key]   # _freeze inlined: this loop is the hot path
        frozen[key] = _FREEZERS.get(type(item), _freeze_other)(
            item, out, frame, memo)
    out.append(b"}")
    return FrozenDict(frozen)


def _freeze_items(value, out: list, frame: Frame, memo: dict) -> list:
    out.append(b"l[")
    items = [_FREEZERS.get(type(item), _freeze_other)(item, out, frame, memo)
             for item in value]
    out.append(b"]")
    return items


def _freeze_list(value: list, out: list, frame: Frame,
                 memo: dict) -> FrozenList:
    return FrozenList(_freeze_items(value, out, frame, memo))


def _freeze_tuple(value: tuple, out: list, frame: Frame, memo: dict) -> tuple:
    return tuple(_freeze_items(value, out, frame, memo))


def _freeze_opaque(value, out: list, frame: Frame, memo: dict):
    frozen = copy.deepcopy(value, memo)
    _cut(out, frame, (frozen, None, None, None))
    return frozen


def _freeze_other(value, out: list, frame: Frame, memo: dict):
    if isinstance(value, np.ndarray):
        return _freeze_array(value, out, frame, memo)
    if isinstance(value, np.generic) and not isinstance(value, np.void):
        _encode(value, out)     # numpy scalars are immutable
        return value
    return _freeze_opaque(value, out, frame, memo)


#: Freezer per exact payload type; anything else takes :func:`_freeze_other`.
_FREEZERS = {
    dict: _freeze_dict, FrozenDict: _freeze_dict, list: _freeze_list,
    FrozenList: _freeze_list, tuple: _freeze_tuple, np.ndarray: _freeze_array,
    bytes: _freeze_bytes, str: _freeze_repr, int: _freeze_repr,
    float: _freeze_repr, bool: _freeze_repr, type(None): _freeze_repr,
}


def _freeze(value: Any, memo: dict) -> tuple[Any, Frame]:
    """Freeze one value: the frozen value and its frame."""
    out: list = []
    frame = Frame([], [])
    frozen = _FREEZERS.get(type(value), _freeze_other)(value, out, frame, memo)
    frame.statics.append(b"".join(out))
    return frozen, frame


# -- thawing ----------------------------------------------------------------------------


def _thaw_dict(value: dict, memo: dict) -> dict:
    get = _THAWERS.get
    return {key: get(type(item), _thaw_other)(item, memo)
            for key, item in value.items()}


def _thaw_list(value: list, memo: dict) -> list:
    get = _THAWERS.get
    return [get(type(item), _thaw_other)(item, memo) for item in value]


def _thaw_tuple(value: tuple, memo: dict) -> tuple:
    return tuple(_thaw_list(value, memo))


def _thaw_array(value: np.ndarray, memo: dict) -> np.ndarray:
    if value.dtype.hasobject:
        return copy.deepcopy(value, memo)
    thawed = memo.get(id(value))
    if thawed is None:
        thawed = memo[id(value)] = value.copy()
    return thawed


def _thaw_same(value, memo: dict):
    return value


def _thaw_other(value, memo: dict):
    if isinstance(value, np.ndarray):
        return _thaw_array(value, memo)
    if isinstance(value, np.generic) and not isinstance(value, np.void):
        return value
    return copy.deepcopy(value, memo)


_THAWERS = {
    FrozenDict: _thaw_dict, FrozenList: _thaw_list, tuple: _thaw_tuple,
    np.ndarray: _thaw_array, bytes: _thaw_same, str: _thaw_same,
    int: _thaw_same, float: _thaw_same, bool: _thaw_same,
    type(None): _thaw_same,
}


def _thaw(value: Any, memo: dict) -> Any:
    return _THAWERS.get(type(value), _thaw_other)(value, memo)


# -- the framed payload ------------------------------------------------------------------


class Framed:
    """A payload value plus the frames that hash it.

    Either a store's frozen snapshot (from :func:`freeze`; read-only
    containers) or a reader's copy (from :meth:`thaw`; plain, writable).
    """

    __slots__ = ("value", "_frames")

    def __init__(self, value: Any, frames):
        self.value = value
        #: ``[(key, Frame)]`` in sorted-key order for a dict payload; one
        #: Frame of the whole value for anything else.
        self._frames = frames

    def entry_digests(self) -> dict[str, str]:
        """The manifest entries: :func:`entry_digests` of the value, or
        the one entry ``__payload__`` of a non-mapping payload."""
        frames = self._frames
        if type(frames) is list:
            return {str(key): frame.digest() for key, frame in frames}
        if isinstance(self.value, Mapping):   # opaque: no entry frames
            return entry_digests(self.value)
        return {"__payload__": frames.digest()}

    def digest(self) -> str:
        """:func:`value_digest` of the whole value, one sha256."""
        frames = self._frames
        if type(frames) is not list:
            return frames.digest()
        chunks: list = [b"d{"]
        for key, frame in frames:
            chunks.append(repr(key).encode())
            frame.chunks(chunks)
        chunks.append(b"}")
        return _sha256(chunks)

    def thaw(self) -> "Framed":
        """A writable, unaliased copy of the value, with its frames."""
        memo: dict = {}
        value = _thaw(self.value, memo)
        frames = self._frames
        if type(frames) is list:
            frames = [(key, frame.thawed(memo)) for key, frame in frames]
        else:
            frames = frames.thawed(memo)
        return Framed(value, frames)


def freeze(payload: Any) -> Framed:
    """Freeze *payload* for a store, in one walk (see the module doc)."""
    memo: dict = {}
    if type(payload) is dict or type(payload) is FrozenDict:
        value = dict.fromkeys(payload)
        frames = []
        for key in sorted(payload, key=str):
            value[key], frame = _freeze(payload[key], memo)
            frames.append((key, frame))
        return Framed(FrozenDict(value), frames)
    return Framed(*_freeze(payload, memo))
