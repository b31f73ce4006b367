// Construction-time snapshot of every ACCESYS_* environment knob.
//
// Hot paths must never call getenv(): libc walks `environ` on every call.
// All runtime escape hatches are therefore read exactly once, the first
// time any component asks, and cached as plain flags. Components capture
// the values they need at construction time, so a knob flipped
// mid-process has no effect.
//
// Knobs:
//   ACCESYS_NO_BATCH=1       disable same-tick batched dispatch
//   ACCESYS_NO_HOP_FUSION=1  disable the event-queue express lane
//   ACCESYS_EAGER_CREDITS=1  per-return PCIe credit events (lazy default)
//   ACCESYS_FAULTS=0         ignore any configured FaultPlan (escape hatch)
//   ACCESYS_CKPT=0           ignore checkpoint requests: --ckpt-at-ns and
//                            watchdog/signal snapshots become no-ops
//                            (escape hatch; restore still works)
#pragma once

namespace accesys {

struct EnvFlags {
    bool no_batch = false;
    bool no_hop_fusion = false;
    bool eager_credits = false;
    bool faults = true;
    bool ckpt = true;

    /// The process-wide snapshot (taken on first use, immutable after —
    /// except via set_for_test).
    [[nodiscard]] static const EnvFlags& get();

    /// TEST ONLY: replace the process snapshot. Components capture flag
    /// values at construction, so call this only while no Simulator (or
    /// other flag consumer) exists, and restore the previous snapshot
    /// afterwards. Not thread-safe.
    static void set_for_test(const EnvFlags& flags);
};

/// Shorthand for EnvFlags::get().
[[nodiscard]] inline const EnvFlags& env_flags()
{
    return EnvFlags::get();
}

} // namespace accesys
