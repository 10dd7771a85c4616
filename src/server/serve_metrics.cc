#include "server/serve_metrics.h"

#include <cstdio>

#include "common/stats.h"

namespace sobc {

namespace {

void AppendField(std::string* out, const char* name, double value,
                 bool trailing_comma = true) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.9g%s", name, value,
                trailing_comma ? ", " : "");
  *out += buf;
}

void AppendField(std::string* out, const char* name, std::uint64_t value,
                 bool trailing_comma = true) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", name,
                static_cast<unsigned long long>(value),
                trailing_comma ? ", " : "");
  *out += buf;
}

void AppendField(std::string* out, const char* name, const std::string& value,
                 bool trailing_comma = true) {
  *out += "\"";
  *out += name;
  *out += "\": \"";
  for (const char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += trailing_comma ? "\", " : "\"";
}

}  // namespace

void ServeMetrics::PushSample(std::vector<double>* ring, std::size_t* next,
                              double value) {
  if (ring->size() < kMaxSamples) {
    ring->push_back(value);
  } else {
    (*ring)[*next] = value;
    *next = (*next + 1) % kMaxSamples;
  }
}

void ServeMetrics::RecordBatch(std::size_t applied, std::size_t coalesced,
                               double apply_seconds,
                               std::span<const double> update_latencies,
                               std::uint64_t sources_total,
                               std::uint64_t sources_prefiltered,
                               std::uint64_t msbfs_batches,
                               std::uint64_t bottom_up_levels) {
  applied_.fetch_add(applied, std::memory_order_relaxed);
  coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  sources_total_.fetch_add(sources_total, std::memory_order_relaxed);
  sources_prefiltered_.fetch_add(sources_prefiltered,
                                 std::memory_order_relaxed);
  msbfs_batches_.fetch_add(msbfs_batches, std::memory_order_relaxed);
  bottom_up_levels_.fetch_add(bottom_up_levels, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sample_mu_);
  for (double latency : update_latencies) {
    PushSample(&latency_samples_, &latency_next_, latency);
  }
  PushSample(&batch_samples_, &batch_next_, apply_seconds);
}

void ServeMetrics::RecordPublication(std::uint64_t epoch,
                                     std::uint64_t stream_position) {
  publish_epoch_.store(epoch, std::memory_order_relaxed);
  published_stream_position_.store(stream_position, std::memory_order_relaxed);
}

void ServeMetrics::RecordApprox(std::uint64_t samples,
                                std::uint64_t sample_epoch,
                                std::uint64_t resamples,
                                std::uint64_t source_swaps, double drift) {
  approx_samples_.store(samples, std::memory_order_relaxed);
  approx_sample_epoch_.store(sample_epoch, std::memory_order_relaxed);
  approx_resamples_.store(resamples, std::memory_order_relaxed);
  approx_source_swaps_.store(source_swaps, std::memory_order_relaxed);
  approx_drift_.store(drift, std::memory_order_relaxed);
}

ServeMetricsSnapshot ServeMetrics::Read() const {
  ServeMetricsSnapshot snap;
  snap.applied = applied_.load(std::memory_order_relaxed);
  snap.coalesced = coalesced_.load(std::memory_order_relaxed);
  snap.batches = batches_.load(std::memory_order_relaxed);
  snap.publishes = publishes_.load(std::memory_order_relaxed);
  snap.publish_epoch = publish_epoch_.load(std::memory_order_relaxed);
  snap.published_stream_position =
      published_stream_position_.load(std::memory_order_relaxed);
  snap.sources_total = sources_total_.load(std::memory_order_relaxed);
  snap.sources_prefiltered =
      sources_prefiltered_.load(std::memory_order_relaxed);
  snap.msbfs_batches = msbfs_batches_.load(std::memory_order_relaxed);
  snap.bottom_up_levels = bottom_up_levels_.load(std::memory_order_relaxed);
  snap.approx_samples = approx_samples_.load(std::memory_order_relaxed);
  snap.approx_sample_epoch =
      approx_sample_epoch_.load(std::memory_order_relaxed);
  snap.approx_resamples = approx_resamples_.load(std::memory_order_relaxed);
  snap.approx_source_swaps =
      approx_source_swaps_.load(std::memory_order_relaxed);
  snap.approx_drift = approx_drift_.load(std::memory_order_relaxed);
  std::vector<double> latencies;
  std::vector<double> batch_seconds;
  {
    std::lock_guard<std::mutex> lock(sample_mu_);
    latencies = latency_samples_;
    batch_seconds = batch_samples_;
  }
  if (!latencies.empty()) {
    const Summary summary(std::move(latencies));
    snap.p50_update_latency_seconds = summary.Quantile(0.5);
    snap.p99_update_latency_seconds = summary.Quantile(0.99);
  }
  if (!batch_seconds.empty()) {
    const Summary summary(std::move(batch_seconds));
    snap.p50_batch_apply_seconds = summary.Quantile(0.5);
    snap.p99_batch_apply_seconds = summary.Quantile(0.99);
  }
  return snap;
}

std::string ServeMetricsSnapshot::ToJson() const {
  std::string out = "{";
  AppendField(&out, "schema_version", kSchemaVersion);
  AppendField(&out, "received", received);
  AppendField(&out, "dropped", dropped);
  AppendField(&out, "applied", applied);
  AppendField(&out, "coalesced", coalesced);
  AppendField(&out, "batches", batches);
  AppendField(&out, "publishes", publishes);
  AppendField(&out, "publish_epoch", publish_epoch);
  AppendField(&out, "published_stream_position", published_stream_position);
  AppendField(&out, "epoch_lag", epoch_lag);
  AppendField(&out, "sources_total", sources_total);
  AppendField(&out, "sources_prefiltered", sources_prefiltered);
  AppendField(&out, "prefilter_skip_rate",
              sources_total > 0 ? static_cast<double>(sources_prefiltered) /
                                      static_cast<double>(sources_total)
                                : 0.0);
  AppendField(&out, "msbfs_batches", msbfs_batches);
  AppendField(&out, "bottom_up_levels", bottom_up_levels);
  AppendField(&out, "approx_samples", approx_samples);
  AppendField(&out, "approx_sample_epoch", approx_sample_epoch);
  AppendField(&out, "approx_resamples", approx_resamples);
  AppendField(&out, "approx_source_swaps", approx_source_swaps);
  AppendField(&out, "approx_drift", approx_drift);
  AppendField(&out, "wal_appends", wal_appends);
  AppendField(&out, "wal_appended_updates", wal_appended_updates);
  AppendField(&out, "wal_bytes", wal_bytes);
  AppendField(&out, "wal_syncs", wal_syncs);
  AppendField(&out, "wal_rotations", wal_rotations);
  AppendField(&out, "checkpoints_written", checkpoints_written);
  AppendField(&out, "checkpoints_skipped", checkpoints_skipped);
  AppendField(&out, "checkpoints_failed", checkpoints_failed);
  AppendField(&out, "last_checkpoint_epoch", last_checkpoint_epoch);
  AppendField(&out, "checkpoint_write_seconds", checkpoint_write_seconds);
  AppendField(&out, "wal_last_durable_epoch", wal_last_durable_epoch);
  AppendField(&out, "health_state", health_state);
  AppendField(&out, "health", health);
  AppendField(&out, "checkpoints_suspended", checkpoints_suspended);
  AppendField(&out, "writer_stalled", writer_stalled);
  AppendField(&out, "last_error", last_error);
  AppendField(&out, "io_retries", io_retries);
  AppendField(&out, "io_retries_exhausted", io_retries_exhausted);
  AppendField(&out, "io_faults_injected", io_faults_injected);
  AppendField(&out, "failovers", failovers);
  AppendField(&out, "failover_gap_seconds", failover_gap_seconds);
  AppendField(&out, "standby_attached", standby_attached);
  AppendField(&out, "replicated_batches", replicated_batches);
  AppendField(&out, "migrations_started", migrations_started);
  AppendField(&out, "migrations_completed", migrations_completed);
  AppendField(&out, "migration_lag_batches", migration_lag_batches);
  AppendField(&out, "shard_map_version", shard_map_version);
  AppendField(&out, "p50_update_latency_seconds", p50_update_latency_seconds);
  AppendField(&out, "p99_update_latency_seconds", p99_update_latency_seconds);
  AppendField(&out, "p50_batch_apply_seconds", p50_batch_apply_seconds);
  AppendField(&out, "p99_batch_apply_seconds", p99_batch_apply_seconds,
              /*trailing_comma=*/false);
  out += "}";
  return out;
}

}  // namespace sobc
