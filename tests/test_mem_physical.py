"""Tests for physical memory: frames, refcounts, contents."""

import pickle

import pytest

from repro.errors import ConfigError, InvalidAddressError, OutOfMemoryError
from repro.mem.physical import (
    PAGE_SIZE,
    PhysicalMemory,
    content_digest,
    page_pattern,
)


def test_alloc_returns_zeroed_frame():
    phys = PhysicalMemory(n_frames=4)
    frame = phys.alloc()
    assert bytes(frame.data) == b"\x00" * PAGE_SIZE
    assert frame.refcount == 1


def test_alloc_exhaustion():
    phys = PhysicalMemory(n_frames=2)
    phys.alloc()
    phys.alloc()
    with pytest.raises(OutOfMemoryError):
        phys.alloc()


def test_free_via_refcount():
    phys = PhysicalMemory(n_frames=1)
    frame = phys.alloc()
    phys.put_ref(frame.pfn)
    # frame returned to the pool
    again = phys.alloc()
    assert again.pfn == frame.pfn


def test_get_ref_increments():
    phys = PhysicalMemory(n_frames=2)
    frame = phys.alloc()
    phys.get_ref(frame.pfn)
    assert frame.refcount == 2
    phys.put_ref(frame.pfn)
    assert frame.refcount == 1
    # still allocated
    assert phys.frame(frame.pfn) is frame


def test_frame_lookup_of_free_pfn_fails():
    phys = PhysicalMemory(n_frames=2)
    with pytest.raises(InvalidAddressError):
        phys.frame(0)


def test_read_write_roundtrip():
    phys = PhysicalMemory(n_frames=2)
    frame = phys.alloc()
    base = phys.frame_base(frame.pfn)
    phys.write(base + 100, b"hello")
    assert phys.read(base + 100, 5) == b"hello"


def test_write_across_frame_boundary_rejected():
    phys = PhysicalMemory(n_frames=2)
    frame = phys.alloc()
    base = phys.frame_base(frame.pfn)
    with pytest.raises(InvalidAddressError):
        phys.write(base + PAGE_SIZE - 2, b"abcd")


def test_pfn_of_and_frame_base_inverse():
    phys = PhysicalMemory(n_frames=8)
    assert phys.pfn_of(phys.frame_base(5) + 123) == 5


def test_pfn_out_of_range():
    phys = PhysicalMemory(n_frames=2)
    with pytest.raises(InvalidAddressError):
        phys.pfn_of(PAGE_SIZE * 100)
    with pytest.raises(InvalidAddressError):
        phys.frame_base(99)


def test_counts():
    phys = PhysicalMemory(n_frames=4)
    assert phys.frames_free == 4
    phys.alloc()
    assert phys.frames_allocated == 1
    assert phys.frames_free == 3


def test_allocation_order_is_ascending_fresh_then_lifo_reuse():
    phys = PhysicalMemory(n_frames=6)
    first = [phys.alloc().pfn for _ in range(4)]
    assert first == [0, 1, 2, 3]
    phys.put_ref(1)
    phys.put_ref(3)
    assert phys.frames_free == 4
    again = [phys.alloc().pfn for _ in range(4)]
    assert again == [3, 1, 4, 5]
    assert phys.frames_free == 0
    with pytest.raises(OutOfMemoryError):
        phys.alloc()


def test_pickle_holds_only_frames_in_circulation():
    """A pool with 40 frames in use pickles to a few KB, not a list of
    every free frame number."""
    phys = PhysicalMemory(n_frames=16_384)
    for _ in range(50):
        phys.alloc()
    for pfn in range(10):
        phys.put_ref(pfn)
    size = len(pickle.dumps(phys, protocol=pickle.HIGHEST_PROTOCOL))
    assert size < 4_000
    clone = pickle.loads(pickle.dumps(phys))
    assert clone.frames_free == phys.frames_free == 16_384 - 40
    assert clone.alloc().pfn == 9


def test_invalid_config():
    with pytest.raises(ConfigError):
        PhysicalMemory(n_frames=0)


def test_content_hash_changes_with_content():
    phys = PhysicalMemory(n_frames=2)
    frame = phys.alloc()
    before = frame.content_hash()
    frame.data[0] = 1
    assert frame.content_hash() != before


def test_untouched_frame_holds_no_bytes_and_reads_as_zero_page():
    phys = PhysicalMemory(n_frames=2)
    frame = phys.alloc()
    assert frame.content_hash() == content_digest(bytes(PAGE_SIZE))
    assert phys.read(phys.frame_base(frame.pfn) + 8, 4) == bytes(4)
    assert not frame.touched
    # pickled (as a checkpoint does) without a page of zeros
    assert len(pickle.dumps(frame)) < 200
    phys.write(phys.frame_base(frame.pfn) + 8, b"ab")
    assert frame.touched
    assert phys.read(phys.frame_base(frame.pfn) + 8, 4) == b"ab\x00\x00"
    assert pickle.loads(pickle.dumps(frame)).data == frame.data


def test_page_pattern_is_deterministic():
    assert page_pattern(1, 0) == page_pattern(1, 0)
    assert page_pattern(1, 0) != page_pattern(2, 0)
    assert page_pattern(1, 0) != page_pattern(1, 1)
    assert len(page_pattern(7, 3)) == PAGE_SIZE


def test_content_digest_is_stable():
    assert content_digest(b"abc") == content_digest(b"abc")
    assert content_digest(b"abc") != content_digest(b"abd")
