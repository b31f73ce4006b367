// Liveness watchdog: seeded deadlocks must terminate with a diagnostic
// SimError carrying a per-component occupancy report — never hang. Two
// scenario families from the robustness contract:
//
//   1. Credit leak on a link (the peer stops releasing ingress buffers,
//      so the transmitter starves forever), surfaced as a drain with jobs
//      outstanding or by the completion-flag poll cap.
//   2. A job dispatched toward a latched-failed link (replay budget
//      exhausted, TLP dead) with no job timeout armed: the host CPU spins
//      on a completion flag that can never arrive, bounded by
//      max_polls_per_op.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "pcie/link.hh"
#include "workload/request_gen.hh"

namespace accesys::core {
namespace {

using workload::GemmSpec;

/// EXPECT_THROW plus message inspection: the SimError must identify the
/// deadlock and include the occupancy diagnostic (and `also`, if given).
template <typename Fn>
void expect_deadlock_diagnostic(Fn&& run, const char* needle,
                                const std::string& also = "")
{
    try {
        run();
        FAIL() << "seeded deadlock completed instead of raising SimError";
    } catch (const SimError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(needle), std::string::npos) << msg;
        EXPECT_NE(msg.find(also), std::string::npos) << msg;
        EXPECT_NE(msg.find("occupancy"), std::string::npos)
            << "diagnostic must carry the occupancy report: " << msg;
    }
}

TEST(Liveness, CreditLeakDeadlockDiagnosedSerial)
{
    // Zero the RC-side transmitter's credits on the shared uplink and
    // drop every future return: the doorbell MMIO write queues at the
    // link forever. The doorbell itself is posted (acked at the RC), so
    // the CPU moves on to polling its host-DRAM completion flag — the
    // queue never drains and the poll cap is the detector that fires.
    // (The Runner's drained-with-jobs-outstanding check covers wedges
    // where no component keeps generating events.)
    auto cfg = SystemConfig::paper_default();
    cfg.cpu.max_polls_per_op = 2000;
    System sys(cfg);
    sys.pcie_uplink().test_leak_credits(0);
    Runner runner(sys);
    runner.dispatch(0, GemmSpec{32, 32, 32, 3}, Placement::host);
    // The diagnostic names what is stuck: the doorbell write staged in
    // the RC's egress queue.
    std::ostringstream doorbell;
    doorbell << "rc: delayed=0, inbound_reads=0, mmio_pending=0, mem_q=0, "
                "egress=1 (head MWr addr=0x"
             << std::hex
             << sys.accelerator(0).bars().front().start() +
                    accel::kRegDoorbell
             << " ";
    expect_deadlock_diagnostic([&] { (void)runner.run_dispatched(); },
                               "liveness watchdog", doorbell.str());
    // The doorbell never crossed the starved uplink.
    EXPECT_EQ(sys.stat("link_up.tlps"), 0.0);
}

TEST(Liveness, JobToLatchedFailedLinkBoundedByPollCap)
{
    // Device 0's link is dead from tick 0 with a tiny replay budget and
    // *no* job/completion timeouts: the doorbell TLP dies after its
    // replays and the completion flag can never be written. The CPU's
    // poll stream is the only event source left; max_polls_per_op turns
    // the infinite spin into a diagnostic SimError.
    auto cfg = SystemConfig::paper_default();
    cfg.cpu.max_polls_per_op = 2000;
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn";
    down.dir = 2;
    down.at_ns = 0.0;
    down.duration_ns = 1e12;
    cfg.fault_plan.events.push_back(down);
    cfg.fault_plan.max_replays = 2;
    cfg.fault_plan.replay_timeout_ns = 1000.0;

    System sys(cfg);
    Runner runner(sys);
    runner.dispatch(0, GemmSpec{32, 32, 32, 7}, Placement::host);
    expect_deadlock_diagnostic([&] { (void)runner.run_dispatched(); },
                               "liveness watchdog");
    EXPECT_GT(sys.stat("link_dn.link_dead_tlps"), 0.0);
}

TEST(Liveness, AllEndpointsQuarantinedTerminatesWithDiagnostic)
{
    // Failover's own liveness bound: with every command hanging
    // (hang_rate = 1.0 everywhere) and a one-strike quarantine policy,
    // each endpoint's first round fails and quarantines it. Once the
    // whole fleet is quarantined with jobs still in the backlog, the
    // runner must terminate with a diagnostic SimError carrying the
    // health table and occupancy report — never spin dispatching rounds
    // at endpoints that can no longer take work.
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.fault_plan.hang_rate = 1.0;
    cfg.fault_plan.job_timeout_ns = 2e5;
    cfg.fault_plan.job_max_attempts = 4;
    cfg.fault_plan.quarantine_failures = 1;

    System sys(cfg);
    Runner runner(sys);
    runner.dispatch(0, GemmSpec{32, 32, 32, 3}, Placement::host);
    runner.dispatch(1, GemmSpec{32, 32, 32, 5}, Placement::host);
    expect_deadlock_diagnostic([&] { (void)runner.run_dispatched(); },
                               "quarantined");
    // Both endpoints froze at their first command boundary, took an FLR,
    // and were quarantined before the stall was diagnosed.
    EXPECT_GT(sys.stat("mf.hangs"), 0.0);
    EXPECT_GT(sys.stat("mf1.hangs"), 0.0);
    EXPECT_EQ(sys.stat("runner.fleet.quarantines"), 2.0);
}

TEST(Liveness, ServingOnFullyQuarantinedFleetTerminatesWithDiagnostic)
{
    // The serving loop's version of the same bound: every endpoint hangs
    // and a one-strike policy quarantines the whole fleet in the first
    // dispatch round, leaving admitted jobs queued with nowhere to go.
    // serve() must raise the diagnostic instead of idling forever.
    const std::string trace = ::testing::TempDir() + "serving_stall.trace";
    {
        std::ofstream out(trace);
        out << "100 0 32 32 32\n101 0 32 32 32\n"
               "102 0 32 32 32\n103 0 32 32 32\n";
    }
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.fault_plan.hang_rate = 1.0;
    cfg.fault_plan.job_timeout_ns = 2e5;
    cfg.fault_plan.job_max_attempts = 4;
    cfg.fault_plan.quarantine_failures = 1;

    System sys(cfg);
    workload::RequestGenConfig gcfg;
    gcfg.mode = workload::RequestGenConfig::Mode::trace;
    gcfg.trace_path = trace;
    workload::TenantSpec tenant;
    tenant.name = "t";
    gcfg.tenants.push_back(tenant);
    workload::RequestGen gen(sys.sim(), gcfg);

    ServingConfig scfg;
    scfg.queue_capacity = 8;
    Runner runner(sys);
    expect_deadlock_diagnostic([&] { (void)runner.serve(gen, scfg); },
                               "every endpoint is quarantined");
    std::remove(trace.c_str());
    EXPECT_EQ(sys.stat("runner.fleet.quarantines"), 2.0);
}

} // namespace
} // namespace accesys::core
