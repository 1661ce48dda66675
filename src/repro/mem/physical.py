"""Physical memory: page frames, allocation, contents and refcounts.

The covert channel itself only needs physical *addresses*; frame
*contents* exist so that the KSM substrate (Section IV of the paper) can
do what the real kernel does — hash page contents and merge identical
pages.  Frames carry a refcount because a merged page is mapped by
several processes at once (copy-on-write).
"""

from __future__ import annotations

import hashlib

from repro.errors import ConfigError, InvalidAddressError, OutOfMemoryError

PAGE_SIZE = 4096

#: Digest of an all-zero page: what an untouched frame hashes as.
ZERO_PAGE_HASH = hashlib.sha256(bytes(PAGE_SIZE)).digest()


class Frame:
    """One physical page frame.

    A frame's bytes are allocated on first access to :attr:`data`: most
    frames (a kernel-build worker maps 1,536 pages) are never written,
    and an untouched frame reads as zeros and hashes as the zero page
    without holding (or pickling into a checkpoint) 4 KiB.
    """

    __slots__ = ("pfn", "_data", "refcount")

    def __init__(self, pfn: int):
        self.pfn = pfn
        self._data: bytearray | None = None
        self.refcount = 1

    @property
    def data(self) -> bytearray:
        """The frame contents (allocated zeroed on first access)."""
        if self._data is None:
            self._data = bytearray(PAGE_SIZE)
        return self._data

    @property
    def touched(self) -> bool:
        """Whether the frame's bytes have been allocated."""
        return self._data is not None

    def content_hash(self) -> bytes:
        """Digest of the frame contents (used by the KSM stable tree)."""
        if self._data is None:
            return ZERO_PAGE_HASH
        return hashlib.sha256(self._data).digest()


class PhysicalMemory:
    """A fixed pool of page frames.

    Frames never handed out come from a counter, in ascending order; the
    free list holds only returned frames, which are reused last in,
    first out before any fresh one.  A new pool (one per kernel) is two
    ints and an empty list, and a checkpoint pickles only the frames in
    circulation.

    Parameters
    ----------
    n_frames:
        Number of 4 KiB frames in the pool.
    """

    def __init__(self, n_frames: int = 4096):
        if n_frames <= 0:
            raise ConfigError("n_frames must be positive")
        self.n_frames = n_frames
        self._frames: dict[int, Frame] = {}
        #: The lowest frame number never allocated.
        self._fresh = 0
        #: Returned frames, reused last in, first out.
        self._free: list[int] = []

    @property
    def frames_allocated(self) -> int:
        """Number of currently allocated frames."""
        return len(self._frames)

    @property
    def frames_free(self) -> int:
        """Number of free frames remaining."""
        return len(self._free) + self.n_frames - self._fresh

    def alloc(self) -> Frame:
        """Allocate one zeroed frame; raises OutOfMemoryError when empty."""
        if self._free:
            pfn = self._free.pop()
        elif self._fresh < self.n_frames:
            pfn = self._fresh
            self._fresh += 1
        else:
            raise OutOfMemoryError("physical memory exhausted")
        frame = Frame(pfn)
        self._frames[pfn] = frame
        return frame

    def frame(self, pfn: int) -> Frame:
        """Return the allocated frame *pfn* (InvalidAddressError if free)."""
        try:
            return self._frames[pfn]
        except KeyError:
            raise InvalidAddressError(f"pfn {pfn} is not allocated") from None

    def get_ref(self, pfn: int) -> Frame:
        """Increment *pfn*'s refcount and return the frame."""
        frame = self.frame(pfn)
        frame.refcount += 1
        return frame

    def put_ref(self, pfn: int) -> None:
        """Decrement *pfn*'s refcount, freeing the frame at zero."""
        frame = self.frame(pfn)
        frame.refcount -= 1
        if frame.refcount <= 0:
            del self._frames[pfn]
            self._free.append(pfn)

    def frame_base(self, pfn: int) -> int:
        """Physical byte address of the start of frame *pfn*."""
        if pfn < 0 or pfn >= self.n_frames:
            raise InvalidAddressError(f"pfn {pfn} out of range")
        return pfn * PAGE_SIZE

    def pfn_of(self, paddr: int) -> int:
        """The frame number containing physical address *paddr*."""
        pfn = paddr // PAGE_SIZE
        if pfn < 0 or pfn >= self.n_frames:
            raise InvalidAddressError(f"paddr {paddr:#x} out of range")
        return pfn

    def write(self, paddr: int, data: bytes) -> None:
        """Write *data* at *paddr* (must stay within one frame)."""
        pfn = self.pfn_of(paddr)
        offset = paddr % PAGE_SIZE
        if offset + len(data) > PAGE_SIZE:
            raise InvalidAddressError("write crosses a frame boundary")
        self.frame(pfn).data[offset:offset + len(data)] = data

    def read(self, paddr: int, length: int) -> bytes:
        """Read *length* bytes at *paddr* (within one frame)."""
        pfn = self.pfn_of(paddr)
        offset = paddr % PAGE_SIZE
        if offset + length > PAGE_SIZE:
            raise InvalidAddressError("read crosses a frame boundary")
        frame = self.frame(pfn)
        if not frame.touched:
            return bytes(length)
        return bytes(frame.data[offset:offset + length])


def page_pattern(seed: int, index: int) -> bytes:
    """A deterministic page-sized bit pattern.

    The trojan and spy fill their pages with identical patterns generated
    from a pre-agreed seed so KSM will merge them (Section IV: "a
    deterministic, pseudo-random number generator function that begins
    with the same seed").
    """
    out = bytearray()
    state = (seed * 2654435761 + index * 97531) & 0xFFFFFFFF
    while len(out) < PAGE_SIZE:
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        out += state.to_bytes(4, "little")
    return bytes(out[:PAGE_SIZE])


def content_digest(data: bytes) -> bytes:
    """Stable digest used for KSM content comparison."""
    return hashlib.sha256(data).digest()
