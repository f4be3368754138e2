"""Bounded circular buffer connecting one producer and one consumer thread.

Fixed-capacity slot ring with head/tail cursors; producers block while the
ring is full (never overwriting unconsumed slots) and consumers block while
it is empty. Closing wakes everyone: blocked producers fail, and consumers
drain what is left before seeing end-of-stream.
"""

from __future__ import annotations

import threading


class EndOfStream(Exception):
    """Producer closed the feed and everything buffered was consumed."""


class BufferClosed(Exception):
    """Produce attempted on a closed buffer."""


class BufferTimeout(Exception):
    pass


class CircularBuffer:
    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._slots = [None] * capacity
        self._head = 0          # next slot to consume
        self._tail = 0          # next slot to fill
        self._count = 0
        self._closed = False
        self._cond = threading.Condition()
        self.total_produced = 0
        self.total_consumed = 0

    def produce(self, batch, timeout: float | None = None) -> None:
        with self._cond:
            while self._count >= self.capacity and not self._closed:
                if not self._cond.wait(timeout):
                    raise BufferTimeout("producer stuck on a full buffer")
            if self._closed:
                raise BufferClosed("feed is closed")
            self._slots[self._tail] = batch
            self._tail = (self._tail + 1) % self.capacity
            self._count += 1
            self.total_produced += 1
            self._cond.notify_all()

    def consume(self, timeout: float | None = None):
        with self._cond:
            while self._count == 0:
                if self._closed:
                    raise EndOfStream
                if not self._cond.wait(timeout):
                    raise BufferTimeout("consumer stuck on an empty buffer")
            batch = self._slots[self._head]
            self._slots[self._head] = None
            self._head = (self._head + 1) % self.capacity
            self._count -= 1
            self.total_consumed += 1
            self._cond.notify_all()
            return batch

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
