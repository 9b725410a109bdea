"""The six workloads, by their final names."""

from perfbench.workloads.job import JOB_HEAVY, JOB_NOINDEX, JOB_SWEEP
from perfbench.workloads.lsm_mixed import LSM_MIXED
from perfbench.workloads.plan_cold import PLAN_COLD
from perfbench.workloads.sched_cluster import SCHED_CLUSTER

WORKLOADS = {workload.name: workload for workload in (
    JOB_SWEEP, JOB_NOINDEX, JOB_HEAVY, PLAN_COLD, SCHED_CLUSTER, LSM_MIXED)}
