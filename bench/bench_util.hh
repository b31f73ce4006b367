// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary is self-contained: it builds fresh System instances,
// runs the paper's sweep, and prints the same rows/series the paper
// reports. Most reproduce one figure or table; bench_fig7_9_transformer
// prints Figs. 7, 8 and 9 from one simulation per design point, since the
// three share core::transformer_design_points(). Pass --quick for a
// reduced sweep (smaller matrices / fewer points) when iterating.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/runner.hh"
#include "sim/env_flags.hh"

namespace benchutil {

/// The System the wall watchdog snapshots on expiry (see WatchScope).
inline std::atomic<accesys::core::System*> g_watch_sys{nullptr};

/// Register `sys` as the watchdog's snapshot target for one run. Arms the
/// interrupt-checkpoint path so expiry needs only flag writes: the run
/// loop writes the checkpoint at its next quiescent point and returns
/// ExitCause::checkpointed, and a later invocation can resume from it.
class WatchScope {
  public:
    explicit WatchScope(accesys::core::System& sys,
                        std::string ckpt_path = "bench_watchdog.ckpt")
    {
        if (accesys::env_flags().ckpt) {
            sys.sim().arm_interrupt_checkpoint(std::move(ckpt_path));
        }
        g_watch_sys.store(&sys, std::memory_order_release);
    }
    WatchScope(const WatchScope&) = delete;
    WatchScope& operator=(const WatchScope&) = delete;
    ~WatchScope() { g_watch_sys.store(nullptr, std::memory_order_release); }
};

inline bool flag_present(int argc, char** argv, const char* flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return true;
        }
    }
    return false;
}

inline bool quick_mode(int argc, char** argv)
{
    return flag_present(argc, argv, "--quick");
}

/// Value of `--<flag> S` or `--<flag>=S`, or `fallback` when absent.
inline std::string arg_str(int argc, char** argv, const char* flag,
                           const char* fallback)
{
    const std::size_t len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
            return argv[i + 1];
        }
        if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
            return argv[i] + len + 1;
        }
    }
    return fallback;
}

/// Value of `--<flag> N` or `--<flag>=N`, or `fallback` when absent.
inline long long arg_ll(int argc, char** argv, const char* flag,
                        long long fallback)
{
    const std::size_t len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
            return std::atoll(argv[i + 1]);
        }
        if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
            return std::atoll(argv[i] + len + 1);
        }
    }
    return fallback;
}

/// `--max-wall-ms N` watchdog: a detached thread hard-exits the process
/// (status 124, like timeout(1)) if the bench is still running after N
/// milliseconds of wall time. A wedged simulation — e.g. a fault sweep
/// that deadlocks instead of degrading — then fails CI loudly instead of
/// hanging it. No-op when the flag is absent.
///
/// Before exiting, the watchdog posts an interrupt on the registered
/// System (WatchScope): the run loop writes the armed checkpoint at its
/// next quiescent point, so the aborted run is resumable, and after a
/// grace window the registry's partial stats are flushed to stderr so the
/// wedged state is diagnosable. A simulation stuck *below* run() (never
/// reaching an event boundary) still exits 124, just without a snapshot.
inline void install_wall_watchdog(int argc, char** argv)
{
    const long long ms = arg_ll(argc, argv, "--max-wall-ms", 0);
    if (ms <= 0) {
        return;
    }
    std::thread([ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        accesys::core::System* sys =
            g_watch_sys.load(std::memory_order_acquire);
        if (sys != nullptr) {
            sys->sim().post_interrupt(); // flag writes only
            // Grace window: the run loop checkpoints and the bench
            // unregisters (WatchScope destructor) on its way out.
            for (int i = 0;
                 i < 20 && g_watch_sys.load(std::memory_order_acquire) !=
                               nullptr;
                 ++i) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
            }
        }
        std::fprintf(stderr,
                     "bench watchdog: still running after %lld ms, "
                     "aborting\n",
                     ms);
        sys = g_watch_sys.load(std::memory_order_acquire);
        if (sys != nullptr) {
            // Best-effort diagnostics: after the grace window the sim is
            // quiesced (checkpoint written) unless it is wedged below
            // run(); a torn line in that case beats no dump at all.
            std::fprintf(stderr, "bench watchdog: partial stats dump:\n");
            sys->stats().write_text(std::cerr);
        }
        std::fflush(nullptr);
        _exit(124);
    }).detach();
}

inline void header(const char* bench, const char* paper_artefact,
                   const char* what)
{
    std::printf("================================================================\n");
    std::printf("%s — reproduces %s\n", bench, paper_artefact);
    std::printf("%s\n", what);
    std::printf("================================================================\n");
}

/// Build a system, offload one timing-only GEMM, tear down; returns the
/// offload latency in milliseconds.
inline double gemm_ms(const accesys::core::SystemConfig& cfg,
                      const accesys::workload::GemmSpec& spec,
                      accesys::core::Placement place)
{
    accesys::core::System sys(cfg);
    WatchScope watch(sys);
    accesys::core::Runner runner(sys);
    return runner.run_gemm(spec, place).ms();
}

} // namespace benchutil
