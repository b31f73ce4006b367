// Micro-benchmarks (google-benchmark) for the simulation substrates:
// event-queue throughput, packet/TLP pool churn, xbar forwarding, cache
// fill/evict churn, DRAM timing, TLB, PCIe link serialization and
// credit-gated link throughput, the PCIe staging path (delay stages and
// egress queues of an RC, a switch and two endpoints under credit
// pressure), the systolic-array functional strip, the int8 GEMM kernel
// under it (MACs/s per path and shape), the operand fill, a verified
// job's fill plus result check, the device-memory C-strip write-back and
// the serving workload's arrival generator. These guard the simulator's
// own performance, which bounds how large a sweep the figure benches can
// afford.
// tools/perf_gate.sh runs the event-queue, packet-alloc, xbar, DRAM-stream,
// cache-fill and link-credit cases against a base build on the same
// machine.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "accel/data_mover.hh"
#include "accel/systolic_array.hh"
#include "cache/cache.hh"
#include "mem/dram_timing.hh"
#include "mem/mem_ctrl.hh"
#include "mem/packet.hh"
#include "mem/traffic_gen.hh"
#include "mem/xbar.hh"
#include "pcie/endpoint.hh"
#include "pcie/link.hh"
#include "pcie/root_complex.hh"
#include "pcie/switch.hh"
#include "pcie/tlp.hh"
#include "sim/gemm_kernel.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "smmu/tlb.hh"
#include "workload/gemm.hh"
#include "workload/request_gen.hh"

using namespace accesys;

namespace {

void bm_event_queue(benchmark::State& state)
{
    EventQueue q;
    const int fanout = static_cast<int>(state.range(0));
    std::vector<std::unique_ptr<Event>> events;
    std::uint64_t fired = 0;
    for (int i = 0; i < fanout; ++i) {
        events.push_back(std::make_unique<Event>(std::to_string(i),
                                                 [&fired] { ++fired; }));
    }
    for (auto _ : state) {
        for (int i = 0; i < fanout; ++i) {
            q.schedule(*events[i], q.now() + 1 + static_cast<Tick>(i % 7));
        }
        while (q.step()) {
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(bm_event_queue)->Arg(16)->Arg(256)->Arg(4096);

void bm_event_queue_steady(benchmark::State& state)
{
    // A constant live set in which every fired event reschedules itself a
    // uniform pseudo-random 1–32 ticks ahead, so a new entry lands anywhere
    // in the window. Simulated traffic is skewed instead; bm_event_queue_hop
    // has its shape. One iteration dispatches one event.
    EventQueue q;
    const int live = static_cast<int>(state.range(0));
    std::vector<std::unique_ptr<Event>> events;
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < live; ++i) {
        Event* ev = events
                        .emplace_back(std::make_unique<Event>(
                            std::to_string(i), nullptr))
                        .get();
        ev->set_callback([&q, &rng, ev] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            q.schedule_in(*ev, 1 + (rng & 31));
        });
        q.schedule(*ev, 1 + static_cast<Tick>(i % 32));
    }
    for (auto _ : state) {
        q.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_event_queue_steady)->Arg(4)->Arg(16)->Arg(32)->Arg(64);

void bm_event_queue_hop(benchmark::State& state)
{
    // The shape of the benchmark workloads' schedules: a few long-lived
    // events (CPU polls, link deliveries, request arrivals) that reschedule
    // themselves far ahead and so sit at the window's latest end, plus
    // hop chains whose short 1–4 tick delays land a few slots from its
    // earliest end. Args: long-lived events, hop chains. One iteration
    // dispatches one event.
    EventQueue q;
    const int slow = static_cast<int>(state.range(0));
    const int hops = static_cast<int>(state.range(1));
    std::vector<std::unique_ptr<Event>> events;
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < slow + hops; ++i) {
        Event* ev = events
                        .emplace_back(std::make_unique<Event>(
                            std::to_string(i), nullptr))
                        .get();
        const Tick base = i < slow ? 1000 : 1;
        const Tick spread = i < slow ? 1023 : 3;
        ev->set_callback([&q, &rng, ev, base, spread] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            q.schedule_in(*ev, base + (rng & spread));
        });
        q.schedule(*ev, base + static_cast<Tick>(i));
    }
    for (auto _ : state) {
        q.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_event_queue_hop)->Args({6, 4})->Args({6, 10});

void bm_packet_alloc(benchmark::State& state)
{
    // Pooled transaction-object churn: the per-hop make/route/response/
    // recycle pattern of the fabric. Steady state does zero heap work.
    std::uint64_t i = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        auto pkt = mem::packet_pool().make_read(0x1000 + (i % 4096) * 64, 64);
        pkt->push_route(1);
        pkt->push_route(3);
        pkt->make_response();
        sink += pkt->pop_route();
        auto tlp = pcie::tlp_pool().make_mem_write(0x2000 + (i % 1024) * 8,
                                                   8, 1);
        sink += tlp->length;
        ++i;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(2 * state.iterations()));
}
BENCHMARK(bm_packet_alloc);

void bm_xbar_forward(benchmark::State& state)
{
    // Steady-state timing forwarding: TrafficGen -> Xbar -> SimpleMem.
    for (auto _ : state) {
        Simulator sim;
        mem::Xbar xbar(sim, "xbar", mem::XbarParams{});
        mem::SimpleMemParams smp;
        const mem::AddrRange range(0, 64 * kMiB);
        mem::SimpleMem memory(sim, "mem", smp, range);
        mem::TrafficGenParams tp;
        tp.total_bytes = 4 * kMiB;
        tp.req_bytes = 64;
        tp.window = 32;
        mem::TrafficGen gen(sim, "gen", tp);
        gen.port().bind(xbar.add_upstream("cpu"));
        xbar.add_downstream("mem", range).bind(memory.port());
        sim.startup();
        gen.start([&sim] { sim.request_exit("done"); });
        benchmark::DoNotOptimize(sim.run().events);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (4 * kMiB / 64));
}
BENCHMARK(bm_xbar_forward);

void bm_cache_fill(benchmark::State& state)
{
    // TrafficGen -> Cache -> SimpleMem with an 8 MiB footprint through a
    // 64 KiB cache: a whole-line write pass installs dirty lines, then a
    // read pass misses on every line and evicts them, so fills, victim
    // selection and dirty-victim writebacks all run. One iteration is
    // both passes; items are lines moved (fills plus writebacks).
    cache::CacheParams cp;
    cp.size_bytes = 64 * kKiB;
    cp.assoc = 8;
    cp.line_bytes = 64;
    cp.mshrs = 16;
    mem::TrafficGenParams read_tp;
    read_tp.total_bytes = 8 * kMiB;
    read_tp.working_set = 8 * kMiB;
    read_tp.req_bytes = 64;
    read_tp.window = 16;
    mem::TrafficGenParams write_tp = read_tp;
    write_tp.write_fraction = 1.0;

    std::uint64_t lines = 0;
    for (auto _ : state) {
        for (const auto* tp : {&write_tp, &read_tp}) {
            Simulator sim;
            cache::Cache c(sim, "c", cp);
            const mem::AddrRange range(0, 64 * kMiB);
            mem::SimpleMem memory(sim, "mem", mem::SimpleMemParams{}, range);
            mem::TrafficGen gen(sim, "gen", *tp);
            gen.port().bind(c.cpu_side());
            c.mem_side().bind(memory.port());
            sim.startup();
            gen.start([&sim] { sim.request_exit("done"); });
            (void)sim.run();
            lines += c.misses() + static_cast<std::uint64_t>(
                                      sim.stats().value("c.writebacks"));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lines));
}
BENCHMARK(bm_cache_fill);

void bm_link_credit(benchmark::State& state)
{
    // A saturating sender pushes 64 B MWr TLPs through one PcieLink
    // (Gen2 x4, 16 KiB data credits) into a consumer that frees ingress
    // at once. The sender stalls whenever the in-flight window exceeds
    // the advertised credits and is kicked by credit_avail, so both the
    // lazy credit return and the stall path run. Items are TLPs.
    struct Consumer final : pcie::PcieNode {
        Simulator* sim = nullptr;
        pcie::PciePort* port = nullptr;
        std::uint64_t received = 0;
        std::uint64_t target = 0;
        void recv_tlp(unsigned, pcie::TlpPtr tlp) override
        {
            port->release_ingress(tlp->payload_bytes());
            if (++received >= target) {
                sim->request_exit("done");
            }
        }
    };
    struct Sender final : pcie::PcieNode {
        pcie::PciePort* port = nullptr;
        std::uint64_t sent = 0;
        std::uint64_t target = 0;
        void pump()
        {
            while (sent < target) {
                auto tlp = pcie::tlp_pool().make_mem_write(
                    0x1000 + (sent % 512) * 64, 64, 1);
                if (!port->can_send(*tlp)) {
                    return; // credit_avail kicks the next pump
                }
                port->send(std::move(tlp));
                ++sent;
            }
        }
        void recv_tlp(unsigned, pcie::TlpPtr) override {}
        void credit_avail(unsigned) override { pump(); }
    };

    constexpr std::uint64_t kTlps = 100'000;
    for (auto _ : state) {
        Simulator sim;
        pcie::PcieLink link(sim, "link", pcie::LinkParams{});
        Sender tx;
        Consumer rx;
        tx.port = &link.end_a();
        tx.target = kTlps;
        rx.sim = &sim;
        rx.port = &link.end_b();
        rx.target = kTlps;
        link.end_a().attach(tx, 0);
        link.end_b().attach(rx, 0);
        sim.startup();
        tx.pump();
        (void)sim.run();
        if (rx.received < kTlps) {
            // A stalled credit path ends the run early, which would
            // report a truncated run as a fast one; fail the process.
            std::fprintf(stderr,
                         "bm_link_credit: credit flow stalled after %llu of "
                         "%llu TLPs\n",
                         static_cast<unsigned long long>(rx.received),
                         static_cast<unsigned long long>(kTlps));
            std::exit(3);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kTlps));
}
BENCHMARK(bm_link_credit);

/// Endpoint streaming alternating 256 B MWr and MRd TLPs at host memory,
/// refilled from tx_ready(), read completions and its SentHooks.
class StreamDevice final : public pcie::Endpoint {
  public:
    StreamDevice(Simulator& sim, std::string name, std::uint16_t id,
                 Addr bar, std::uint64_t target)
        : Endpoint(sim, std::move(name), pcie::EndpointParams{id, 20.0},
                   {mem::AddrRange::with_size(bar, 64 * kKiB)}),
          target_(target)
    {
    }

    void pump()
    {
        while (issued_ < target_ && egress_depth() < kEgressDepth) {
            const bool read = (issued_ & 1) != 0;
            if (read && reads_out_ >= kReadTags) {
                return; // a completion pumps again
            }
            const Addr addr = 0x100000 + (issued_ % 1024) * 256 +
                              Addr{device_id()} * 0x100000;
            auto tlp = read ? pcie::make_mem_read(
                                  addr, 256,
                                  static_cast<std::uint8_t>(next_tag_++ %
                                                            kReadTags),
                                  device_id())
                            : pcie::make_mem_write(addr, 256, device_id());
            reads_out_ += read ? 1 : 0;
            ++issued_;
            send_tlp(std::move(tlp), pcie::SentHook{&on_sent, this, 0});
        }
    }

    [[nodiscard]] bool done() const noexcept
    {
        return sent_ == target_ && reads_out_ == 0;
    }

  protected:
    std::uint64_t mmio_read(Addr, std::uint32_t) override { return 0; }
    void mmio_write(Addr, std::uint32_t, std::uint64_t) override {}
    void recv_dma_completion(const pcie::Tlp& cpl) override
    {
        if (cpl.is_last) {
            --reads_out_;
            pump();
        }
    }
    void tx_ready() override { pump(); }

  private:
    static constexpr std::size_t kEgressDepth = 8;
    static constexpr std::uint64_t kReadTags = 32;

    static void on_sent(void* self, std::uint32_t /*arg*/)
    {
        ++static_cast<StreamDevice*>(self)->sent_;
    }

    std::uint64_t target_;
    std::uint64_t issued_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t reads_out_ = 0;
    std::uint64_t next_tag_ = 0;
};

void bm_pcie_stage(benchmark::State& state)
{
    // The shared PCIe staging path at its own layer: two endpoints behind
    // one switch stream alternating 256 B MWr/MRd TLPs through a root
    // complex into a SimpleMem. Both downstream links feed one uplink, so
    // the switch's upstream egress runs credit-starved and holds ingress
    // credits, which backs up each endpoint's egress queue; read
    // completions return through the RC's egress queue and every node's
    // delay stage. Items are TLPs issued by the endpoints.
    constexpr std::uint64_t kPerDevice = 20'000;
    constexpr Addr kBarBase = 0x100000000000ULL;
    for (auto _ : state) {
        Simulator sim;
        pcie::RcParams rc_params;
        rc_params.device_addresses_virtual = false;
        pcie::RootComplex rc(sim, "rc", rc_params);
        mem::SimpleMem host(sim, "host", mem::SimpleMemParams{},
                            mem::AddrRange::with_size(0, 1 * kGiB));
        rc.mem_side().bind(host.port());
        pcie::PcieLink up(sim, "up", pcie::LinkParams{});
        pcie::PcieSwitch sw(sim, "sw", pcie::SwitchParams{});
        rc.connect_pcie(up.end_a());
        sw.set_upstream(up.end_b());
        std::vector<std::unique_ptr<pcie::PcieLink>> links;
        std::vector<std::unique_ptr<StreamDevice>> devs;
        for (std::uint16_t id = 1; id <= 2; ++id) {
            const Addr bar = kBarBase + Addr{id} * 64 * kKiB;
            links.push_back(std::make_unique<pcie::PcieLink>(
                sim, "dn" + std::to_string(id), pcie::LinkParams{}));
            devs.push_back(std::make_unique<StreamDevice>(
                sim, "ep" + std::to_string(id), id, bar, kPerDevice));
            sw.add_downstream(links.back()->end_a(),
                              {mem::AddrRange::with_size(bar, 64 * kKiB)},
                              id);
            devs.back()->connect_pcie(links.back()->end_b());
        }
        sim.startup();
        for (auto& dev : devs) {
            dev->pump();
        }
        (void)sim.run();
        for (const auto& dev : devs) {
            if (!dev->done()) {
                // A stalled stage ends the run early, which would report a
                // truncated run as a fast one; fail the process.
                std::fprintf(stderr, "bm_pcie_stage: %s stalled\n",
                             dev->name().c_str());
                std::exit(3);
            }
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            2 * static_cast<std::int64_t>(kPerDevice));
}
BENCHMARK(bm_pcie_stage)->Unit(benchmark::kMillisecond);

void bm_dram_stream(benchmark::State& state)
{
    mem::DramTiming dram(mem::ddr4_2400());
    Tick t = 0;
    Addr addr = 0;
    for (auto _ : state) {
        const auto acc = dram.access(addr, false, t);
        t = acc.bus_busy_until;
        addr += 64;
        benchmark::DoNotOptimize(acc.data_ready);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_dram_stream);

void bm_tlb_lookup(benchmark::State& state)
{
    smmu::Tlb tlb(1024, 4);
    for (std::uint64_t vpn = 0; vpn < 1024; ++vpn) {
        tlb.insert(vpn, vpn + 100);
    }
    std::uint64_t vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(vpn % 1024));
        ++vpn;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_tlb_lookup);

void bm_systolic_tile(benchmark::State& state)
{
    mem::BackingStore store;
    const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
    std::vector<std::int8_t> data(16 * k, 3);
    store.write(0x1000, data.data(), data.size());
    store.write(0x100000, data.data(), data.size());
    accel::SystolicArray sa{accel::SystolicParams{}};
    for (auto _ : state) {
        sa.compute_strip(store, 0x1000, 0x100000, 0x200000, 16, 16, k, 16);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            16 * 16 * k);
}
BENCHMARK(bm_systolic_tile)->Arg(64)->Arg(256)->Arg(1024);

void bm_gemm_kernel(benchmark::State& state)
{
    // The shared int8 GEMM kernel alone, per path: args are m, n, k and
    // path (0 = portable, 1 = AVX-512 VNNI).
    const auto m = static_cast<std::uint32_t>(state.range(0));
    const auto n = static_cast<std::uint32_t>(state.range(1));
    const auto k = static_cast<std::uint32_t>(state.range(2));
    auto kernel = &detail::gemm_i8_nt_portable;
    if (state.range(3) == 1) {
#if ACCESYS_HAVE_VNNI_KERNEL
        kernel = &detail::gemm_i8_nt_vnni;
#endif
        if (!detail::cpu_has_vnni()) {
            state.SkipWithError("CPU lacks avx512vnni/avx512bw");
            return;
        }
    }
    std::vector<std::int8_t> a(std::size_t{m} * k);
    std::vector<std::int8_t> bt(std::size_t{n} * k);
    Rng rng(std::uint64_t{m} * 7 + k);
    rng.fill_bytes(a.data(), a.size());
    rng.fill_bytes(bt.data(), bt.size());
    std::vector<std::int32_t> c(std::size_t{m} * n);
    for (auto _ : state) {
        kernel(a.data(), bt.data(), c.data(), m, n, k, n);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.counters["MACs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * m * n * k,
        benchmark::Counter::kIsRate);
}
// The shapes the benchmark workloads run: each device strip is 16 x 16 x k
// (max_block_cols = 16); each check is one m^3 call for m = 16, 32 and 48
// (serving) and 256-row blocks of m x m x m for m = 512 and 768 (the GEMM
// workloads; bm_gemm_check times those). 16 x 768 x 768 is no workload's
// shape; it stays for comparison with earlier numbers.
BENCHMARK(bm_gemm_kernel)
    ->ArgNames({"m", "n", "k", "vnni"})
    ->ArgsProduct({{16}, {16}, {16, 32, 48, 512, 768}, {0, 1}})
    ->ArgsProduct({{32}, {32}, {32}, {0, 1}})
    ->ArgsProduct({{48}, {48}, {48}, {0, 1}})
    ->ArgsProduct({{512}, {512}, {512}, {0, 1}})
    ->ArgsProduct({{768}, {768}, {768}, {0, 1}})
    ->ArgsProduct({{16}, {768}, {768}, {0, 1}});

void bm_init_gemm_data(benchmark::State& state)
{
    // Operand fill of one m^3 GEMM (A then B_T) at the workloads' shapes:
    // 16^3, 32^3 and 48^3 per serving request, 512^3 and 768^3 per GEMM
    // workload job. The store persists across iterations, so this times
    // the fill itself, not the first-touch chunk allocation.
    const auto m = static_cast<std::uint32_t>(state.range(0));
    const workload::GemmSpec spec{m, m, m, 1};
    mem::BackingStore store;
    const Addr a = 0x1000;
    const Addr bt = a + spec.a_bytes();
    for (auto _ : state) {
        workload::init_gemm_data(store, spec, a, bt);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(spec.a_bytes() +
                                                      spec.b_bytes()));
}
BENCHMARK(bm_init_gemm_data)
    ->ArgName("m")
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Arg(512)
    ->Arg(768);

void bm_gemm_check(benchmark::State& state)
{
    // A verified GEMM job's host-side work at the GEMM workloads' shapes:
    // the operand fill at dispatch, then the check of a correct C, which
    // rebuilds the reference from the seed in 256-row blocks. The checker
    // and the store persist across iterations, as in a Runner.
    const auto m = static_cast<std::uint32_t>(state.range(0));
    const workload::GemmSpec spec{m, m, m, 1};
    mem::BackingStore store;
    const Addr a = 0x1000;
    const Addr bt = a + spec.a_bytes();
    const Addr c = bt + spec.b_bytes();
    workload::init_gemm_data(store, spec, a, bt);
    std::vector<std::int8_t> av(spec.a_bytes());
    std::vector<std::int8_t> btv(spec.b_bytes());
    store.read(a, av.data(), av.size());
    store.read(bt, btv.data(), btv.size());
    std::vector<std::int32_t> ref(std::size_t{m} * m);
    gemm_i8_nt(av.data(), btv.data(), ref.data(), m, m, m, m);
    store.write(c, ref.data(), ref.size() * 4);
    workload::GemmChecker checker;
    for (auto _ : state) {
        workload::init_gemm_data(store, spec, a, bt);
        const std::uint64_t mismatches = checker.check(store, spec, c);
        benchmark::DoNotOptimize(mismatches);
        if (mismatches != 0) {
            // C is correct, so a mismatch is a broken check; fail the
            // process rather than time it.
            std::fprintf(stderr, "bm_gemm_check: %llu mismatches at %u^3\n",
                         static_cast<unsigned long long>(mismatches), m);
            std::exit(3);
        }
        benchmark::ClobberMemory();
    }
    state.counters["MACs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * spec.macs(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(bm_gemm_check)->ArgName("m")->Arg(512)->Arg(768);

void bm_c_strip_writeback(benchmark::State& state)
{
    // The accelerator's C write-back on the device-memory path: each
    // iteration hands DevMemMover one strip (16 C rows of 64 B, 3 KiB
    // apart) as one batch and drains it. Strips walk a 768 x 768 int32 C
    // (2.25 MiB, larger than L2) in MatrixFlow's order, column block
    // outer, so each strip's destination lines are cold.
    constexpr Addr kDevBase = 0x200000000000ULL;
    constexpr Addr kStaging = 0x700000000000ULL;
    constexpr std::uint32_t kN = 768;
    const mem::AddrRange range = mem::AddrRange::with_size(kDevBase, kGiB);
    Simulator sim;
    mem::BackingStore store;
    mem::SimpleMem devmem(sim, "devmem", mem::SimpleMemParams{}, range);
    accel::DevMemMover mover(sim, "mover", accel::DevMemMover::Params{},
                             range, store);
    mover.port().bind(devmem.port());
    const std::vector<std::int32_t> strip_c(16 * 16, 1);
    store.write(kStaging, strip_c.data(), strip_c.size() * 4);
    // Allocate C's chunks up front: the loop times copies, not first touch.
    for (Addr off = 0; off < Addr{kN} * kN * 4;
         off += mem::BackingStore::kChunkBytes) {
        store.write_obj<std::uint8_t>(kDevBase + off, 0);
    }
    std::array<accel::TransferJob, 16> jobs;
    std::uint32_t strip = 0;
    std::uint32_t col_block = 0;
    for (auto _ : state) {
        for (std::uint32_t row = 0; row < jobs.size(); ++row) {
            jobs[row] = accel::TransferJob{
                kStaging + row * 64,
                kDevBase + (Addr{strip} * 16 + row) * kN * 4 +
                    Addr{col_block} * 64,
                64, {}};
        }
        mover.submit(jobs);
        benchmark::DoNotOptimize(sim.run().events);
        benchmark::ClobberMemory();
        if (++strip == kN / 16) {
            strip = 0;
            col_block = (col_block + 1) % (kN / 16);
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            16 * 64);
}
BENCHMARK(bm_c_strip_writeback);

void bm_memctrl_traffic(benchmark::State& state)
{
    for (auto _ : state) {
        Simulator sim;
        mem::MemCtrlParams mp;
        mp.dram = mem::ddr4_2400();
        mem::MemCtrl ctrl(sim, "mem", mp, mem::AddrRange(0, 64 * kMiB));
        mem::TrafficGenParams tp;
        tp.total_bytes = 256 * kKiB;
        tp.req_bytes = 64;
        mem::TrafficGen gen(sim, "gen", tp);
        gen.port().bind(ctrl.port());
        sim.startup();
        gen.start([&sim] { sim.request_exit("done"); });
        sim.run();
        benchmark::DoNotOptimize(gen.achieved_gbps());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            (256 * kKiB / 64));
}
BENCHMARK(bm_memctrl_traffic);

void bm_pcie_serialize(benchmark::State& state)
{
    pcie::LinkParams lp;
    lp.lanes = 16;
    lp.lane_gbps = 16;
    std::uint64_t bytes = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lp.serialize_ticks(bytes));
        bytes = (bytes * 7 + 3) % 4096 + 1;
    }
}
BENCHMARK(bm_pcie_serialize);

void bm_request_gen(benchmark::State& state)
{
    // The serving_overload workload's arrivals (benchmark/leg.cc, seed 1):
    // two tenants at 6e5 jobs/s in total over a 50 ms horizon, 30,315
    // requests. Each iteration constructs the generator and drains every
    // request into a buffer reused across iterations.
    workload::RequestGenConfig g;
    g.seed = 1;
    g.horizon_ns = 5e7;
    workload::TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = 4e5;
    interactive.mix = {workload::GemmSpec{16, 16, 16},
                       workload::GemmSpec{32, 32, 32}};
    workload::TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = 2e5;
    batch.mix = {workload::GemmSpec{48, 48, 48}};
    g.tenants = {interactive, batch};
    std::vector<workload::Request> arrivals;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        Simulator sim;
        workload::RequestGen gen(sim, g);
        gen.take_until(kMaxTick, arrivals);
        requests += arrivals.size();
        benchmark::DoNotOptimize(arrivals.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(bm_request_gen);

} // namespace

BENCHMARK_MAIN();
