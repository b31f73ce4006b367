// Shared fixtures and mock components for the accesys test suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "core/system.hh"
#include "mem/backing_store.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/gemm_kernel.hh"
#include "sim/simulator.hh"
#include "workload/gemm.hh"

namespace accesys::test {

/// A requestor that records every response and can optionally refuse the
/// first N responses (to exercise the retry protocol).
class MockRequestor : public mem::Requestor {
  public:
    explicit MockRequestor(std::string name)
        : port_(name, *this)
    {
    }

    mem::RequestPort& port() { return port_; }

    bool recv_resp(mem::PacketPtr& pkt) override
    {
        if (refuse_next_ > 0) {
            --refuse_next_;
            ++refused;
            return false;
        }
        responses.push_back(std::move(pkt));
        return true;
    }

    void retry_req() override { ++req_retries; }

    void refuse_responses(unsigned n) { refuse_next_ = n; }

    std::vector<mem::PacketPtr> responses;
    unsigned req_retries = 0;
    unsigned refused = 0;

  private:
    mem::RequestPort port_;
    unsigned refuse_next_ = 0;
};

/// A responder that queues requests and answers on demand; can refuse the
/// first N requests.
class MockResponder : public mem::Responder {
  public:
    explicit MockResponder(std::string name) : port_(name, *this) {}

    mem::ResponsePort& port() { return port_; }

    bool recv_req(mem::PacketPtr& pkt) override
    {
        if (refuse_next_ > 0) {
            --refuse_next_;
            ++refused;
            return false;
        }
        requests.push_back(std::move(pkt));
        return true;
    }

    void retry_resp() override { ++resp_retries; }

    /// Convert the oldest pending request into a response and send it.
    bool answer_one()
    {
        if (requests.empty()) {
            return false;
        }
        mem::PacketPtr pkt = std::move(requests.front());
        requests.pop_front();
        pkt->make_response();
        return port_.send_resp(pkt);
    }

    void refuse_requests(unsigned n) { refuse_next_ = n; }
    void grant_retry() { port_.send_retry_req(); }

    std::deque<mem::PacketPtr> requests;
    unsigned resp_retries = 0;
    unsigned refused = 0;

  private:
    mem::ResponsePort port_;
    unsigned refuse_next_ = 0;
};

/// Reference C (m x n int32, row-major) of the operands at `a` and `bt` in
/// `store`, from the shared int8 kernel: the oracle tests write or compare
/// against.
inline std::vector<std::int32_t> reference_c(const mem::BackingStore& store,
                                             const workload::GemmSpec& spec,
                                             Addr a, Addr bt)
{
    std::vector<std::int8_t> av(spec.a_bytes());
    std::vector<std::int8_t> btv(spec.b_bytes());
    store.read(a, av.data(), av.size());
    store.read(bt, btv.data(), btv.size());
    std::vector<std::int32_t> c(std::size_t{spec.m} * spec.n);
    gemm_i8_nt(av.data(), btv.data(), c.data(), spec.m, spec.n, spec.k,
               spec.n);
    return c;
}

/// Reference C of the operands init_gemm_data writes for `spec`.
inline std::vector<std::int32_t> reference_c(const workload::GemmSpec& spec)
{
    mem::BackingStore store;
    workload::init_gemm_data(store, spec, 0, spec.a_bytes());
    return reference_c(store, spec, 0, spec.a_bytes());
}

/// Run the simulator until drained, asserting it terminates.
inline void drain(Simulator& sim, Tick horizon = 100 * kTicksPerMs)
{
    const auto rr = sim.run(horizon);
    ASSERT_NE(rr.cause, ExitCause::horizon_reached)
        << "simulation failed to drain by tick " << horizon;
}

/// Drain `sys`, then assert that both ends of the shared uplink and of
/// every endpoint's downlink hold their full advertised transmit credits:
/// every ingress buffer was released and its credits came home exactly
/// once. Drains first because a run can return with credit returns still
/// in flight behind its completion; then waits out the longest
/// propagation delay, since a lazy return schedules no event of its own.
inline void expect_credits_home(core::System& sys)
{
    sys.sim().run();
    std::vector<pcie::PcieLink*> links{&sys.pcie_uplink()};
    for (std::size_t i = 0; i < sys.device_count(); ++i) {
        links.push_back(&sys.pcie_downlink(i));
    }
    double prop_ns = 0.0;
    for (const pcie::PcieLink* link : links) {
        prop_ns = std::max(prop_ns, link->params().propagation_delay_ns);
    }
    Event settle("settle", [] {});
    sys.sim().queue().schedule(settle,
                               sys.sim().now() + ticks_from_ns(prop_ns));
    sys.sim().run();
    for (pcie::PcieLink* link : links) {
        const pcie::LinkParams& p = link->params();
        for (const pcie::PciePort* end : {&link->end_a(), &link->end_b()}) {
            EXPECT_EQ(end->hdr_credits(), p.hdr_credits) << link->name();
            EXPECT_EQ(end->data_credits(), p.data_credit_bytes)
                << link->name();
        }
    }
}

} // namespace accesys::test
