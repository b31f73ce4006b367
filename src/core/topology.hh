// Declarative PCIe topology construction for multi-accelerator systems.
//
// The TopologyBuilder turns a SystemConfig's device list + switch tree into
// live components in two phases:
//
//   1. resolve()  — pure address-map planning: auto-carve BAR0s, device
//      memory apertures and scratchpad staging space, assign unique PCIe
//      requester ids and SMMU stream ids, and validate that nothing
//      overlaps. The result is inspectable without building anything.
//
//   2. build()    — instantiate the switch tree (RC -> root switch ->
//      nested switches), one link + MatrixFlow endpoint per device, and
//      per-device device-side memory (xbar + controller), then wire it all
//      up. Parent switches learn the union of BARs and the full requester
//      id set of each subtree so memory TLPs route down by BAR and
//      completions route down by requester id at every level.
//
// Naming keeps the single-device layout stable: device 0 and its plumbing
// are "mf" / "link_dn" / "devmem_xbar" / "devmem" exactly as before, and
// device i>0 appends the index ("mf1", "link_dn1", ...), which is what
// gives every device a distinct stat prefix in the registry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bump_alloc.hh"
#include "core/system_config.hh"
#include "mem/backing_store.hh"

namespace accesys::core {

/// A DeviceConfig with every auto-carved field made concrete.
struct ResolvedDevice {
    std::string name;
    accel::MatrixFlowParams accel;
    std::uint32_t stream_id = 0;
    std::size_t attach_to = 0;
    /// Downstream link parameters (DeviceConfig::link or the system-wide
    /// SystemConfig::pcie clone).
    pcie::LinkParams link;

    bool devmem_enabled = false;
    mem::AddrRange devmem{};
    bool devmem_simple = false;
    mem::MemCtrlParams devmem_mem;
    mem::SimpleMemParams devmem_simple_mem;
    mem::XbarParams devmem_xbar;

    [[nodiscard]] std::uint16_t requester_id() const noexcept
    {
        return accel.ep.device_id;
    }
    [[nodiscard]] mem::AddrRange bar0() const noexcept
    {
        return mem::AddrRange::with_size(accel.bar0_base, accel.bar0_size);
    }
    /// Ranges the switch fabric routes to this endpoint.
    [[nodiscard]] std::vector<mem::AddrRange> bars() const
    {
        std::vector<mem::AddrRange> b{bar0()};
        if (devmem_enabled) {
            b.push_back(devmem);
        }
        return b;
    }
};

/// The planned address map + switch tree, before instantiation.
struct ResolvedTopology {
    std::vector<SwitchConfig> switches;
    std::vector<ResolvedDevice> devices;
    /// CPU-visible PCIe window covering every BAR and devmem aperture.
    mem::AddrRange pcie_window{};
};

/// One live endpoint with its link and (optional) device-side memory.
struct DeviceInstance {
    std::string name;
    std::uint32_t stream_id = 0;
    std::size_t attach_to = 0;

    std::unique_ptr<pcie::PcieLink> link;
    std::unique_ptr<accel::MatrixFlowDevice> device;

    mem::AddrRange devmem{};
    std::unique_ptr<mem::Xbar> devmem_xbar;
    std::unique_ptr<mem::MemCtrl> devmem_ctrl;
    std::unique_ptr<mem::SimpleMem> devmem_simple;
    BumpAllocator devmem_alloc;

    [[nodiscard]] bool devmem_enabled() const noexcept
    {
        return !devmem.empty();
    }
};

/// The live PCIe fabric below the root complex.
struct Topology {
    /// Switches in declaration order; [0] is the root below the RC.
    std::vector<std::unique_ptr<pcie::PcieSwitch>> switches;
    /// Uplink of each switch, parallel to `switches`; [0] faces the RC.
    std::vector<std::unique_ptr<pcie::PcieLink>> uplinks;
    std::vector<DeviceInstance> devices;
    mem::AddrRange pcie_window{};
};

class TopologyBuilder {
  public:
    /// Plan the address map: carve auto BARs / devmem / staging space,
    /// assign requester and stream ids, and check for overlaps. Throws
    /// ConfigError on impossible layouts.
    [[nodiscard]] static ResolvedTopology resolve(const SystemConfig& cfg);

    /// Instantiate and wire the PCIe hierarchy: RC -> switch tree -> N
    /// endpoints (plus per-device device memory). The returned Topology
    /// owns every component it created.
    [[nodiscard]] static Topology build(Simulator& sim,
                                        mem::BackingStore& store,
                                        const SystemConfig& cfg,
                                        pcie::RootComplex& rc);
};

} // namespace accesys::core
