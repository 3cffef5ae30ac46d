"""Workload specifications.

A workload spec is a declarative description of the client load applied to a
cluster: how many conflict classes exist, how large each partition is, how
often each site submits update transactions and queries, how skewed the class
choice is and how long transactions take to execute.  Experiments are pure
functions of ``(spec, cluster config, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import WorkloadError

#: Prefix used for the keys of partition ``k``: ``part<k>:obj<i>``.
PARTITION_KEY_PREFIX = "part"

#: Objects one update transaction reads and writes (fewer when a partition
#: has fewer objects).
OPERATIONS_PER_UPDATE = 2

#: Initial value of every object.
INITIAL_VALUE = 100


@lru_cache(maxsize=None, typed=True)
def partition_class_id(partition_index: int) -> str:
    """Conflict class id of partition ``partition_index``.

    Cached, so every request of a class shares one id string instead of
    keeping a fresh one per submission.
    """
    return f"C{partition_index}"


def partition_key(partition_index: int, object_index: int) -> str:
    """Key of object ``object_index`` inside partition ``partition_index``."""
    return f"{PARTITION_KEY_PREFIX}{partition_index}:obj{object_index}"


@dataclass
class WorkloadSpec:
    """Description of the client load applied to a replicated database.

    Attributes
    ----------
    class_count:
        Number of conflict classes (= database partitions).
    objects_per_class:
        Number of objects in each partition.
    updates_per_site:
        How many update transactions every site submits.
    update_interval:
        Mean think time between two consecutive update submissions of one
        site (seconds); the actual inter-submission times are exponential.
    queries_per_site:
        How many read-only queries every site submits.
    query_interval:
        Mean think time between two consecutive query submissions of one site.
    query_span:
        How many conflict classes a query reads (Section 5 stresses that
        queries may span several classes).
    class_skew:
        Zipf skew of the conflict-class choice (0 = uniform).  Higher skew
        means a hotter class, i.e. a higher conflict rate.
    update_duration / query_duration:
        Mean simulated execution times (seconds) of the generated stored
        procedures.

    Every update reads and writes :data:`OPERATIONS_PER_UPDATE` objects of
    its partition, and every object starts at :data:`INITIAL_VALUE`.
    """

    class_count: int = 6
    objects_per_class: int = 20
    updates_per_site: int = 50
    update_interval: float = 0.004
    queries_per_site: int = 0
    query_interval: float = 0.010
    query_span: int = 2
    class_skew: float = 0.0
    update_duration: float = 0.002
    query_duration: float = 0.002

    def __post_init__(self) -> None:
        if self.class_count < 1:
            raise WorkloadError("class_count must be at least 1")
        if self.objects_per_class < 1:
            raise WorkloadError("objects_per_class must be at least 1")
        if self.updates_per_site < 0 or self.queries_per_site < 0:
            raise WorkloadError("per-site operation counts cannot be negative")
        if self.update_interval < 0.0 or self.query_interval < 0.0:
            raise WorkloadError("intervals cannot be negative")
        if not 1 <= self.query_span:
            raise WorkloadError("query_span must be at least 1")
        if not self.class_skew >= 0.0:
            raise WorkloadError(f"class_skew must be >= 0, not {self.class_skew!r}")

    @property
    def effective_query_span(self) -> int:
        """Query span clamped to the number of classes."""
        return min(self.query_span, self.class_count)

    def total_updates(self, site_count: int) -> int:
        """Total number of update transactions submitted by ``site_count`` sites."""
        return self.updates_per_site * site_count
