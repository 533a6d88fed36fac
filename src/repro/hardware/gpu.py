"""GPU out-of-memory behaviour.

The paper repeatedly hits the K80's 12 GB ceiling ("GPU OOM" regions in
Figures 7-10): Matmul needs three resident blocks per task (two inputs, one
output) so the 8192 MB block exceeds device memory, and K-means hits the
ceiling for large blocks combined with many clusters.  The simulated
executor compares every GPU task's working set with one device's memory
before the run starts and raises :class:`GpuOutOfMemoryError` for a task
that cannot fit (with GPU overflow on, such a task runs on a CPU core
instead).
"""

from __future__ import annotations


class GpuOutOfMemoryError(MemoryError):
    """Raised when a task's working set exceeds the device memory."""

    def __init__(self, requested: int, capacity: int, device: str = "") -> None:
        self.requested = requested
        self.capacity = capacity
        self.device = device
        super().__init__(
            f"GPU OOM on {device or 'device'}: requested "
            f"{requested / 2**20:.0f} MiB, capacity {capacity / 2**20:.0f} MiB"
        )
