"""Swift-style transparent recovery: roll advanced ranks *back*.

Plain transparent recovery (Section 4.2.2) resolves a parameter-version
skew — some ranks finished the optimizer step, some did not — by copying
state from an up-to-date replica into every behind rank.  Swift [Zhong et
al., PPoPP'23] resolves the same skew in the opposite direction: ranks
that advanced undo their last optimizer step algebraically, so the whole
job lands on the *previous* version without moving any parameter bytes.
The recovery then replays the previous minibatch's log in addition to the
current one (machinery the base coordinator already has for the
everyone-behind case).

The trade-off the paper notes — "Swift requires optimizers to use only
invertible operators" — is enforced at system construction.
"""

from __future__ import annotations

from repro.core.config import JitConfig
from repro.core.swift import rollback_one_version, supports_undo
from repro.core.transparent import RecoveryCoordinator, TransparentJitSystem
from repro.framework.optim import OPTIMIZER_KINDS


class SwiftRecoveryCoordinator(RecoveryCoordinator):
    """Recovery coordinator that prefers optimizer rollback to replica copy.

    When accessible ranks hold mixed parameter versions {target-1, target}
    and every advanced rank's optimizer can undo its last step, the
    advanced ranks roll back one version in place and recovery proceeds
    from ``target - 1``.  Version-consistent situations (and optimizers
    without an inverse) fall back to the base coordinator's behaviour.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Count of individual rank rollbacks performed (telemetry).
        self.rollbacks = 0

    def _choose_base_version(self, target: int) -> int:
        accessible = [p for p in self.proxies if p.ctx.gpu.is_accessible]
        advanced = [p for p in accessible if p.completed_steps == target]
        behind = [p for p in accessible if p.completed_steps == target - 1]
        skewed = (advanced and behind
                  and len(advanced) + len(behind) == len(accessible))
        if not skewed:
            return super()._choose_base_version(target)
        undoable = [p for p in advanced
                    if supports_undo(self.job.engines[p.rank].optimizer)
                    and self.job.engines[p.rank].optimizer.can_undo]
        if len(undoable) != len(advanced):
            # Some advanced rank cannot be rolled back (non-invertible
            # optimizer or no retained gradients): copy-from-replica path.
            return super()._choose_base_version(target)
        for proxy in advanced:
            rollback_one_version(self.job.engines[proxy.rank].optimizer)
            proxy.completed_steps = target - 1
            self.rollbacks += 1
            self.env.tracer.record(self.env.now, "recovery", "swift_rollback",
                                   rank=proxy.rank, to_version=target - 1)
        return target - 1


class SwiftJitSystem(TransparentJitSystem):
    """Transparent JIT with Swift's rollback resolving version skew.

    Requires the workload's optimizer to be invertible; rejects specs
    whose optimizer kind has no registered inverse, mirroring Swift's
    applicability restriction.
    """

    def __init__(self, env, spec, store=None, config: JitConfig = None):
        factory = OPTIMIZER_KINDS.get(spec.optimizer)
        if factory is None or not hasattr(factory, "undo_last_step"):
            raise ValueError(
                f"SwiftJitSystem needs an invertible optimizer; workload "
                f"{spec.name!r} uses {spec.optimizer!r}")
        super().__init__(env, spec, store=store, config=config)
        old = self.coordinator
        self.coordinator = SwiftRecoveryCoordinator(
            env, old.config, self.telemetry, criu=old.criu,
            registry=old.registry, settle_time=old.settle_time)
