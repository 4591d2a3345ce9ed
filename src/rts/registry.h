#ifndef GIGASCOPE_RTS_REGISTRY_H_
#define GIGASCOPE_RTS_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsql/schema.h"
#include "rts/ring.h"
#include "telemetry/registry.h"

namespace gigascope::rts {

/// A subscriber's end of a stream: its private bounded channel.
using Subscription = std::shared_ptr<RingChannel>;

/// Registers `channel`'s ring metrics under `entity`: the `<prefix>_pushed`,
/// `_popped`, `_dropped`, `_size` and `_high_water` readers and the
/// `_occupancy` and `_batch_size` histograms. The closures share ownership
/// of the channel, so a registry snapshot stays safe even if the
/// subscription is dropped before the registry.
void RegisterRingMetrics(telemetry::Registry* metrics,
                         const std::string& entity, const std::string& prefix,
                         const Subscription& channel);

/// The stream manager's registry (§3): query nodes register the streams
/// they produce; consumers subscribe by name and receive a channel handle.
/// Publication fans out to every subscriber's channel; a slow subscriber
/// drops on its own channel without affecting others (the stream manager
/// "does not track the connection further").
class StreamRegistry {
 public:
  StreamRegistry() = default;

  /// Channel backend for every subscription created after this call: with
  /// options.enabled, Subscribe hands out shm-backed rings whose slots
  /// live in fork-inherited shared memory (multi-process HFTA mode). Set
  /// once, before queries are added — rings created earlier keep their
  /// backend.
  void SetChannelOptions(const ShmRingOptions& options) {
    channel_options_ = options;
  }
  const ShmRingOptions& channel_options() const { return channel_options_; }

  /// Declares (or re-declares) a stream and its schema.
  Status DeclareStream(const gsql::StreamSchema& schema);

  bool HasStream(const std::string& name) const;

  Result<gsql::StreamSchema> GetSchema(const std::string& name) const;

  /// Subscribes to a stream; the returned channel receives every message
  /// published after this call. `capacity` bounds the subscriber's buffer.
  /// `local` forces a heap-backed ring even when SetChannelOptions chose
  /// shm — for subscriptions whose producer and consumer provably share
  /// the parent process (e.g. source→LFTA rings in multi-process mode),
  /// which would otherwise pay serialization for a boundary never crossed.
  Result<Subscription> Subscribe(const std::string& name, size_t capacity,
                                 bool local = false);

  /// Publishes a message to all subscribers. Returns the number of
  /// subscribers that accepted it (others counted drops).
  size_t Publish(const std::string& name, const StreamMessage& message);

  /// Publishes a whole batch to all subscribers (copied per subscriber,
  /// moved to the last). Returns the number of subscribers that accepted
  /// it; the ring parks a trailing punctuation instead of dropping it.
  size_t PublishBatch(const std::string& name, StreamBatch&& batch);

  /// The subscriber channels of `name` (empty when unknown). Setup-time,
  /// placement and fault-injection plumbing; the channels themselves
  /// remain single-producer/single-consumer.
  std::vector<Subscription> Subscribers(const std::string& name) const;

  std::vector<std::string> StreamNames() const;

  /// Total drops across all subscriber channels of `name`.
  uint64_t TotalDrops(const std::string& name) const;

  /// One ring counter (e.g. &RingChannel::torn) summed across every
  /// subscriber channel of every stream. Safe to call concurrently with
  /// publishes (reads atomic ring counters; streams themselves are only
  /// added during setup).
  uint64_t SumAll(uint64_t (RingChannel::*counter)() const) const;

  /// Total drops across every subscriber channel of every stream.
  uint64_t TotalDropsAll() const { return SumAll(&RingChannel::dropped); }

  /// Occupancy (size/capacity) of the fullest subscriber channel across all
  /// streams, in [0, 1]. The overload controller's ring-pressure signal.
  double MaxOccupancyFraction() const;

 private:
  struct StreamEntry {
    gsql::StreamSchema schema;
    std::vector<Subscription> subscribers;
  };
  std::map<std::string, StreamEntry> streams_;
  ShmRingOptions channel_options_;
};

/// Producer-side accumulator for a node's output stream: operators append
/// messages and the writer publishes them as batches. A batch flushes when
/// it reaches `max_batch` messages or when a punctuation closes it (the
/// batch invariant: punctuation only at the tail); the owning operator
/// calls Flush() at the end of every Poll so no output outlives the poll
/// round that produced it.
class BatchWriter {
 public:
  BatchWriter(StreamRegistry* registry, std::string stream, size_t max_batch)
      : registry_(registry),
        stream_(std::move(stream)),
        max_batch_(max_batch == 0 ? 1 : max_batch) {}

  void Write(StreamMessage&& message) {
    const bool punctuation =
        message.kind == StreamMessage::Kind::kPunctuation;
    open_.items.push_back(std::move(message));
    if (punctuation || open_.items.size() >= max_batch_) Flush();
  }

  void Flush() {
    if (open_.items.empty()) return;
    registry_->PublishBatch(stream_, std::move(open_));
    open_.items.clear();
  }

 private:
  StreamRegistry* registry_;
  std::string stream_;
  size_t max_batch_;
  StreamBatch open_;
};

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_REGISTRY_H_
