"""Counter-based, splittable random streams.

A stream is identified by a 256-bit key derived from the root seed and the
chain of child labels. Children are independent of draw order, so a single
seed reproduces a whole run no matter which parts of it execute first.
Backed by numpy's Philox bit generator, which is counter-based: its output is
a function of the key and the counter alone. Every draw re-keys the calling
thread's one Philox to the stream (`RandomStream.rekeyed`), so it equals the
first draw of a fresh `Philox(key)` on any thread and in any order. Each draw
starts at the stream's key: derive one child per draw, or call `rekeyed()`
once for a run of draws that continue one another.
"""

from __future__ import annotations

import hashlib
import struct
import threading

import numpy as np

_per_thread = threading.local()  # .generator: the thread's one re-keyed Generator
_ZEROS = np.zeros(4, dtype=np.uint64)  # a fresh Philox's counter and buffer


class RandomStream:
    """A keyed random stream with deterministic, label-addressed children.
    Each draw starts at the key; `rekeyed()` serves a run of draws."""

    __slots__ = ("_key",)

    def __init__(self, seed: int | bytes):
        if isinstance(seed, bytes):
            self._key = seed
        else:
            self._key = hashlib.sha256(b"focusrank-root:%d" % int(seed)).digest()

    def child(self, *labels) -> "RandomStream":
        """Derive an independent stream keyed by this stream plus `labels`."""
        h = hashlib.sha256(self._key)
        for label in labels:
            h.update(b"/")
            h.update(str(label).encode("utf-8"))
        return RandomStream(h.digest())

    def rekeyed(self) -> np.random.Generator:
        """The calling thread's one reused generator, re-keyed to this stream.

        Re-keying sets the state a fresh `Philox(key)` generator starts in:
        this stream's key, a zero counter, an empty buffer and no cached
        32-bit half, at a fraction of the cost of building one. It is this
        stream's only until any stream draws or re-keys on the same thread.
        """
        generator = getattr(_per_thread, "generator", None)
        if generator is None:
            generator = _per_thread.generator = np.random.Generator(np.random.Philox())
        generator.bit_generator.state = {
            "bit_generator": "Philox",
            # Philox(key=k) splits the 128-bit k into two little-endian words.
            "state": {"counter": _ZEROS, "key": struct.unpack_from("<2Q", self._key)},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return generator

    # Convenience draw methods; each one starts at the stream's key.
    def normal(self, shape, scale=1.0) -> np.ndarray:
        return self.rekeyed().normal(0.0, scale, size=shape)

    def uniform(self, shape, low=0.0, high=1.0) -> np.ndarray:
        return self.rekeyed().uniform(low, high, size=shape)

    def gumbel(self, shape) -> np.ndarray:
        return self.rekeyed().gumbel(0.0, 1.0, size=shape)

    def integers(self, low, high, shape=None) -> np.ndarray:
        return self.rekeyed().integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self.rekeyed().permutation(n)
