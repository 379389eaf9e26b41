// A Transport decorator that records one span per transport call.
//
// It wraps one rank's SocketTransport, forwards every virtual of the
// Transport contract (runtime/mailbox.h), and times each call that moves
// bytes or waits for peers. The cheap getters (num_shards, local_shard) are
// forwarded untimed. ShardRuntime takes any unique_ptr<Transport>, so the
// library needs no change to be traced this way; the wire counters are read
// through inner().
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/socket_transport.h"
#include "trace.h"

namespace perfbench {

class TimingTransport final : public deltacol::Transport {
 public:
  explicit TimingTransport(std::unique_ptr<deltacol::SocketTransport> inner)
      : inner_(std::move(inner)) {}

  deltacol::SocketTransport& inner() const { return *inner_; }

  int num_shards() const override { return inner_->num_shards(); }
  int local_shard() const override { return inner_->local_shard(); }

  void run_shards(const std::function<void(int)>& body) override {
    const trace::Scope span("runtime.run_shards", rank());
    inner_->run_shards(body);
  }

  void exchange() override {
    const trace::Scope span("net.exchange", rank());
    inner_->exchange();
  }

  std::vector<std::vector<std::vector<std::uint8_t>>> all_gather_rows(
      std::vector<std::vector<std::uint8_t>> local_row) override {
    const trace::Scope span("net.all_gather_rows", rank());
    return inner_->all_gather_rows(std::move(local_row));
  }

  OwnedExchange exchange_owned(std::vector<std::vector<std::uint8_t>> to_peers,
                               std::vector<std::int64_t> row_counts,
                               std::vector<std::int64_t> row_bits) override {
    const trace::Scope span("net.exchange_owned", rank());
    return inner_->exchange_owned(std::move(to_peers), std::move(row_counts),
                                  std::move(row_bits));
  }

  std::int64_t allreduce_sum(std::int64_t value) override {
    const trace::Scope span("net.allreduce_sum", rank());
    return inner_->allreduce_sum(value);
  }

  std::int64_t allreduce_max(std::int64_t value) override {
    const trace::Scope span("net.allreduce_max", rank());
    return inner_->allreduce_max(value);
  }

  void gather_colors(const deltacol::VertexPartition& part,
                     std::vector<int>& values) override {
    const trace::Scope span("net.gather_colors", rank());
    inner_->gather_colors(part, values);
  }

 private:
  int rank() const { return inner_->local_shard(); }

  std::unique_ptr<deltacol::SocketTransport> inner_;
};

}  // namespace perfbench
