"""What setting up a coded configuration costs in memory.

Both metrics recorded for the perf gate are ratios of byte counts, the
same on every machine: ``coding_setup_alloc_headroom`` is what building
a configuration's shares allocates at its peak, and
``setup_retained_headroom`` is what a master keeps once it has shipped
the shares.
"""

import tracemalloc

from _metrics import record_metric
from repro.coding import SchemeParams
from repro.core import AVCCMaster, EncodingCache
from repro.runtime import SimCluster, SimWorker


def test_setup_allocates_little_more_than_the_shares(field, rng):
    """Bytes of shares returned over the peak traced while building
    them, on the train workload's 1800 x 2000 matrix at (12, 9): 1.0
    would be the shares and nothing else."""
    x = field.random((1800, 2000), rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, fwd, bwd = EncodingCache(field, x).shares(12, 9)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    returned = fwd.nbytes + bwd.nbytes
    record_metric("coding_setup_alloc_headroom", returned / peak)
    assert peak >= returned


def test_master_keeps_the_dataset_not_its_shares(field, rng):
    """Bytes of the dataset over the bytes an AVCC master still holds
    once ``setup`` has shipped the shares, on the same matrix and
    scheme: 1.0 would be the dataset and nothing else (codes and keys
    are ~1.5 % more); a master that kept both share stacks, 0.27. The
    workers' copies are not the master's, so distribute keeps none."""
    backend = SimCluster(field, [SimWorker(i) for i in range(12)], rng=rng)
    backend.distribute = lambda name, shares, participants=None: 0.0
    master = AVCCMaster(backend, SchemeParams(n=12, k=9, s=1, m=2), rng=rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = field.random((1800, 2000), rng)
        master.setup(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    record_metric("setup_retained_headroom", x.nbytes / held)
    assert held >= x.nbytes
