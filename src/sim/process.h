// Actor base class: anything that lives on the simulated network (sensor
// node, cluster head, base station, event generator) is a Process with a
// stable id and a hook for receiving packets.
#pragma once

#include <cstdint>

#include "sim/simulator.h"

namespace tibfit::net {
struct Packet;
}

namespace tibfit::sim {

/// Stable identifier of a process on the network (node id, CH id, ...).
using ProcessId = std::uint32_t;

/// Sentinel for "no process".
inline constexpr ProcessId kNoProcess = static_cast<ProcessId>(-1);

/// Ids are dense (node i has id i), so the tables keyed by id (the
/// channel's endpoints, the router's index) hold a slot for every id below
/// the largest they know. They refuse an id at or above this.
inline constexpr ProcessId kMaxProcessId = ProcessId{1} << 20;

/// Base class for simulated actors. Subclasses receive packets via
/// handle_packet and schedule their own timers through sim().
class Process {
  public:
    Process(Simulator& sim, ProcessId id) : sim_(&sim), id_(id) {}
    virtual ~Process() = default;

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    ProcessId id() const { return id_; }
    Simulator& sim() const { return *sim_; }

    /// Delivery hook invoked by the channel when a packet arrives.
    ///
    /// `packet` is the send's shared body: every receiver of a broadcast
    /// (and every monitor or duplicate copy of a unicast) is handed the same
    /// object, with `rssi` stamped for this receiver just before the call.
    /// The reference is valid only for the duration of the call; copy the
    /// packet (or the fields needed) to keep anything past it.
    virtual void handle_packet(const net::Packet& packet) = 0;

  private:
    Simulator* sim_;
    ProcessId id_;
};

}  // namespace tibfit::sim
