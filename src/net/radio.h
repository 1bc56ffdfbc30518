// Per-node radio handle: a thin, owning-nothing façade over the shared
// Channel that carries the node's identity and counts its traffic. Sensor
// nodes, CHs and the base station all talk through a Radio.
#pragma once

#include <cstddef>
#include <utility>

#include "net/channel.h"

namespace tibfit::net {

/// A node's view of the medium.
class Radio {
  public:
    /// The channel must outlive the radio. The owner must have attached
    /// `id` to the channel before sending.
    Radio(Channel& channel, sim::ProcessId id) : channel_(&channel), id_(id) {}

    sim::ProcessId id() const { return id_; }
    Channel& channel() const { return *channel_; }

    /// Sends `payload` to `dst`. Returns true if delivery was scheduled.
    /// The payload moves once more, into the send's shared body.
    bool send(sim::ProcessId dst, Payload payload) {
        const bool ok = channel_->unicast(id_, dst, std::move(payload));
        ++sent_;
        if (!ok) ++failures_;
        return ok;
    }

    /// Broadcasts `payload` to everyone in range; returns deliveries.
    std::size_t broadcast(Payload payload) {
        const std::size_t n = channel_->broadcast(id_, std::move(payload));
        ++sent_;
        if (n == 0) ++failures_;
        return n;
    }

    std::size_t sent() const { return sent_; }
    std::size_t send_failures() const { return failures_; }

  private:
    Channel* channel_;
    sim::ProcessId id_;
    std::size_t sent_ = 0;
    std::size_t failures_ = 0;
};

}  // namespace tibfit::net
