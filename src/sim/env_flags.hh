// Construction-time snapshot of every ACCESYS_* environment knob.
//
// Hot paths must never call getenv(): libc walks `environ` on every call.
// All runtime knobs are therefore read exactly once, the first time any
// component asks, and cached as plain flags. Components capture the values
// they need at construction time, so a knob flipped mid-process has no
// effect. This file is the only place in the program that calls getenv()
// (CI enforces it).
//
// Knobs:
//   ACCESYS_FAULTS=0         ignore any configured FaultPlan (escape hatch)
//   ACCESYS_CKPT=0           ignore checkpoint requests: --ckpt-at-ns and
//                            watchdog/signal snapshots become no-ops
//                            (escape hatch; restore still works)
//
// PCIe link credits have one path (lazy, see pcie/link.hh) and no knob: its
// oracle is the randomized reference model in test_pcie_link.
#pragma once

namespace accesys {

struct EnvFlags {
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
