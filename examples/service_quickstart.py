"""Publish → certify → serve: the service layer in one sitting.

Walks the full custodian-to-recipient path:

1. anonymize a CENSUS sample with BUREL and admit it to a
   content-addressed :class:`~repro.service.PublicationStore` — the
   store certifies the publication against its declared β requirement
   before anything touches disk;
2. watch the gate refuse a publication that violates its contract;
3. serve a COUNT workload through the micro-batching
   :class:`~repro.service.QueryService` and check the answers are
   bit-identical to evaluating the workload directly.

Run from the repo root::

    PYTHONPATH=src python examples/service_quickstart.py
"""

import tempfile

import numpy as np

from repro.api import Dataset
from repro.dataset import make_census
from repro.query import batch_estimates, make_workload
from repro.service import CertificationError, PublicationStore, QueryService


def main() -> None:
    table = make_census(20_000, seed=7, correlation=0.3)
    workload = make_workload(table.schema, 500, lam=2, theta=0.1, rng=13)

    with tempfile.TemporaryDirectory() as root:
        store = PublicationStore(root)

        # 1. Publish: anonymize, certify against the declared contract,
        #    persist losslessly under the content digest.
        run = Dataset(table).anonymize("burel", beta=2.0)
        record = run.publish(store, requirement={"beta": 2.0})
        print(f"admitted {record.kind} publication {record.pub_id[:12]}… "
              f"({record.n_groups} ECs, engine ran "
              f"{run.elapsed_seconds:.3f}s)")
        print(f"certified privacy: beta="
              f"{record.audit['privacy']['beta']:.4f} "
              f"<= declared {record.requirement['beta']}")

        # 2. The gate refuses contracts the publication does not honor:
        #    nothing is written for a failed admission.
        try:
            run.publish(store, requirement={"beta": 0.1})
        except CertificationError as exc:
            print(f"refused as expected: {exc}")

        # 3. Serve: concurrent requests are micro-batched onto the
        #    batched query engine; loaded artifacts are LRU-cached.
        with QueryService(store, workers=2) as service:
            estimates = service.answer(record.pub_id, workload)
            stats = service.stats_snapshot()
        print(f"served {stats['requests']} requests in "
              f"{stats['batches']} micro-batches "
              f"(mean size {stats['mean_batch_size']:.0f})")

        # Bit-identity with the direct evaluation path.
        direct = batch_estimates(
            table, {"burel": run.published}, workload
        )["burel"]
        assert np.array_equal(estimates, direct)
        print("served answers are bit-identical to direct evaluation")


if __name__ == "__main__":
    main()
