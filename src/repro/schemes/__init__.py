"""The paper's taxonomy of data synchronization schemes (section 3).

Four interchangeable implementations of the :class:`SyncScheme`
interface:

* ``reference-based``  -- Cedar key/data: a key per array element
* ``instance-based``   -- HEP full/empty bits over renamed storage
* ``statement-oriented`` -- Alliant Advance/Await statement counters
* ``process-oriented`` -- the paper's proposal: folded process counters
"""

from .base import InstrumentedLoop, RunConfig, SyncScheme
from .instance_based import (InstanceBasedLoop, InstanceBasedScheme,
                             Instance, ReadBinding, rename)
from .process_oriented import ProcessOrientedLoop, ProcessOrientedScheme
from .reference_based import (KeyedAccess, ReferenceBasedLoop,
                              ReferenceBasedScheme, plan_accesses)
from .registry import make_scheme, scheme_names
from .statement_oriented import (StatementOrientedLoop,
                                 StatementOrientedScheme, at_least)

__all__ = [
    "InstrumentedLoop", "Instance", "InstanceBasedLoop",
    "InstanceBasedScheme", "KeyedAccess", "ProcessOrientedLoop",
    "ProcessOrientedScheme", "ReadBinding", "ReferenceBasedLoop", "RunConfig",
    "ReferenceBasedScheme", "StatementOrientedLoop",
    "StatementOrientedScheme", "SyncScheme", "at_least", "make_scheme",
    "plan_accesses", "rename", "scheme_names",
]
