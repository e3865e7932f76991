"""Task-to-device placement policies for multi-device runs.

``Placement.assign(task) -> device_id`` decides which device a tenant's
stack lives on.  All policies are deterministic pure functions of the
tenant name and the env's current occupancy — never of wall time,
process identity, or Python's salted ``hash()`` — so the same scenario
places identically across runs, worker pools, and machines (the
placement-determinism tests pin this).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, Type


def stable_hash(text: str) -> int:
    """Deterministic 64-bit hash (sha256 prefix); never ``hash()``."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def partition_of(tenant: str, explicit: Optional[Dict[str, str]] = None) -> str:
    """A tenant's partition: explicit map, else name prefix before '.'."""
    if explicit is not None:
        mapped = explicit.get(tenant)
        if mapped is not None:
            return mapped
    head, _, _ = tenant.partition(".")
    return head


class PlacementPolicy:
    """Base class.  ``bind`` is called once with the device-id list."""

    #: Registry key and display name.
    name = "base"

    def __init__(self) -> None:
        self.device_ids: tuple[int, ...] = ()
        #: Tenants currently placed per device (maintained by the
        #: env: assignment adds, migration moves, loss evacuates).
        self.occupancy: Dict[int, int] = {}

    def bind(self, device_ids: Sequence[int]) -> None:
        self.device_ids = tuple(device_ids)
        self.occupancy = {device_id: 0 for device_id in self.device_ids}

    def candidates(
        self, exclude: Sequence[int] = ()
    ) -> tuple[int, ...]:
        barred = set(exclude)
        return tuple(d for d in self.device_ids if d not in barred)

    def assign(self, tenant: str, exclude: Sequence[int] = ()) -> int:
        """Pick a device for ``tenant``; ``exclude`` bars lost devices."""
        raise NotImplementedError

    # -- occupancy bookkeeping (called by the env) ----------------------
    def placed(self, device_id: int) -> None:
        self.occupancy[device_id] = self.occupancy.get(device_id, 0) + 1

    def departed(self, device_id: int) -> None:
        count = self.occupancy.get(device_id, 0)
        self.occupancy[device_id] = max(0, count - 1)


#: Name → class map used by ``build_env`` and the CLI.
placement_registry: Dict[str, Type[PlacementPolicy]] = {}


def register_placement(cls: Type[PlacementPolicy]) -> Type[PlacementPolicy]:
    """Class decorator adding a placement policy to the registry."""
    placement_registry[cls.name] = cls
    return cls


@register_placement
class LeastLoaded(PlacementPolicy):
    """Fewest resident tenants wins; ties break to the lowest id."""

    name = "least-loaded"

    def assign(self, tenant: str, exclude: Sequence[int] = ()) -> int:
        candidates = self.candidates(exclude)
        if not candidates:
            raise ValueError("no live device to place on")
        return min(
            candidates, key=lambda d: (self.occupancy.get(d, 0), d)
        )


@register_placement
class HashShard(PlacementPolicy):
    """Stable-hash the tenant name onto the live devices.

    Placement depends only on the name and the live-device list, so a
    tenant lands on the same shard in every run and on every worker.
    """

    name = "hash-shard"

    def assign(self, tenant: str, exclude: Sequence[int] = ()) -> int:
        candidates = self.candidates(exclude)
        if not candidates:
            raise ValueError("no live device to place on")
        return candidates[stable_hash(tenant) % len(candidates)]


@register_placement
class PartitionAffinity(PlacementPolicy):
    """Keep a partition's tenants co-resident on one home device.

    The partition key (name prefix before the first ``.``, or an
    explicit map) stable-hashes to a home device; every tenant of the
    partition follows it there.  When the home is excluded (device
    loss), the partition re-homes onto the surviving device the same
    hash walk reaches — still deterministic, still co-resident.
    """

    name = "partition-affinity"

    def __init__(self, partition_map: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self.partition_map = dict(partition_map or {})

    def assign(self, tenant: str, exclude: Sequence[int] = ()) -> int:
        candidates = self.candidates(exclude)
        if not candidates:
            raise ValueError("no live device to place on")
        group = partition_of(tenant, self.partition_map)
        return candidates[stable_hash(group) % len(candidates)]
