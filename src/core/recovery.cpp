#include "core/recovery.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "durability/codec.hpp"
#include "durability/io.hpp"
#include "durability/model_codec.hpp"
#include "sim/scenario_registry.hpp"
#include "util/log.hpp"

namespace arcadia::core {

namespace {

constexpr char kManifestMagic[4] = {'A', 'R', 'C', 'M'};
constexpr std::uint32_t kManifestVersion = 5;

using durability::Decoder;
using durability::DurabilityError;
using durability::Encoder;

using durability::MaybeConst;

template <class Io, MaybeConst<fault::FaultProfile> T>
void fields(Io& io, T& f) {
  io.boolean(f.enabled);
  io.u64(f.seed);
  io.f64(f.monitoring.report_loss);
  io.f64(f.monitoring.report_dup);
  io.f64(f.monitoring.report_delay);
  io.sim_time(f.monitoring.delay_min);
  io.sim_time(f.monitoring.delay_max);
  io.f64(f.monitoring.channel_disconnect);
  io.sim_time(f.monitoring.disconnect_min);
  io.sim_time(f.monitoring.disconnect_max);
  io.f64(f.repair.op_transient);
  io.f64(f.repair.op_permanent);
  io.sim_time(f.repair.permanent_from);
  io.sim_time(f.repair.permanent_until);
  io.f64(f.repair.op_stall);
  io.sim_time(f.repair.stall_min);
  io.sim_time(f.repair.stall_max);
  io.f64(f.fleet.tenant_crash);
  io.sim_time(f.fleet.crash_min);
  io.sim_time(f.fleet.crash_max);
  io.sim_time(f.fleet.crash_duration);
}

template <class Io, MaybeConst<sim::ScenarioConfig> T>
void fields(Io& io, T& c) {
  io.u64(c.seed);
  io.sim_time(c.horizon);
  io.sim_time(c.quiescent_end);
  io.sim_time(c.stress_start);
  io.sim_time(c.stress_end);
  io.f64(c.normal_rate_hz);
  io.f64(c.stress_rate_hz);
  io.data_size(c.request_size);
  io.data_size(c.normal_response_mean);
  io.data_size(c.stress_response_size);
  io.f64(c.normal_response_sigma);
  io.sim_time(c.service_base);
  io.sim_time(c.service_per_kb);
  io.f64(c.service_sigma);
  io.bandwidth(c.link_capacity);
  io.f64(c.comp_sg1_phase1_mbps);
  io.f64(c.comp_sg1_stress_mbps);
  io.f64(c.comp_sg1_final_mbps);
  io.f64(c.comp_sg2_phase1_mbps);
  io.f64(c.comp_sg2_stress_mbps);
  io.f64(c.comp_sg2_final_mbps);
  io.boolean(c.comp_bidirectional);
  io.sim_time(c.thresholds.max_latency);
  fields(io, c.fault);
  io.i64(c.grid.groups);
  io.i64(c.grid.servers_per_group);
  io.i64(c.grid.clients);
  io.i64(c.grid.clients_per_pod);
  io.i64(c.grid.spares);
  io.sim_time(c.flash.start);
  io.sim_time(c.flash.end);
  io.f64(c.flash.rate_multiplier);
  io.sim_time(c.churn.first_outage);
  io.sim_time(c.churn.period);
  io.sim_time(c.churn.outage);
  io.i64(c.churn.outages);
  io.i64(c.fleet.tenants);
  io.i64(c.fleet.tenant_index);
  io.sim_time(c.fleet.phase_shift);
  io.sim_time(c.fleet.active_duration);
}

template <class Io, MaybeConst<FrameworkConfig> T>
void fields(Io& io, T& f) {
  io.sim_time(f.profile.max_latency);
  io.f64(f.profile.max_server_load);
  io.bandwidth(f.profile.min_bandwidth);
  io.f64(f.profile.min_utilization);
  io.i64(f.profile.min_replicas);
  io.str(f.script_source);
  io.str(f.repair.policy_name);
  io.boolean(f.repair.damping);
  io.sim_time(f.repair.settle_time);
  io.sim_time(f.repair.abort_cooldown);
  io.f64(f.repair.load_improvement);
  io.boolean(f.repair.use_plan);
  io.boolean(f.repair.preemption);
  io.f64(f.repair.preempt_factor);
  io.boolean(f.gauge_costs.caching);
  io.sim_time(f.gauge_costs.report_period);
  io.sim_time(f.gauge_costs.create_cost);
  io.sim_time(f.gauge_costs.destroy_cost);
  io.sim_time(f.gauge_costs.relocate_cost);
  io.sim_time(f.gauge_costs.watchdog_period);
  io.sim_time(f.gauge_costs.stale_after);
  io.boolean(f.remos_prequery);
  io.boolean(f.monitoring_qos);
  io.sim_time(f.bus_base_delay);
  io.sim_time(f.probe_period);
  io.sim_time(f.gauge_window);
  io.sim_time(f.check_period);
  io.sim_time(f.first_check);
  fields(io, f.fault);
  io.i64(f.repair.retry.max_attempts);
  io.sim_time(f.repair.retry.backoff_base);
  io.f64(f.repair.retry.backoff_multiplier);
  io.sim_time(f.repair.retry.backoff_max);
  io.f64(f.repair.retry.jitter);
  io.u64(f.repair.retry.jitter_seed);
  io.sim_time(f.repair.retry.op_timeout);
  io.enumeration(f.verify, VerifyMode::Off, VerifyMode::Error, "VerifyMode");
  io.str(f.durability.dir);
  io.sim_time(f.durability.snapshot_period);
  io.u32(f.durability.retention);
  io.u32(f.durability.gauge_batch_cap);
  io.sim_time(f.durability.sync_interval);
}

/// The manifest body, between the magic + version header and the CRC.
template <class Io, MaybeConst<Manifest> T>
void fields(Io& io, T& m) {
  io.str(m.scenario);
  fields(io, m.config);
  fields(io, m.framework);
}

}  // namespace

void write_manifest(const std::string& dir, const Manifest& manifest) {
  Encoder enc;
  for (char ch : kManifestMagic) enc.u8(static_cast<std::uint8_t>(ch));
  enc.u32(kManifestVersion);
  fields(enc, manifest);
  std::vector<std::uint8_t> bytes = enc.take();
  const std::uint32_t crc = durability::crc32(bytes.data(), bytes.size());
  Encoder tail;
  tail.u32(crc);
  const std::vector<std::uint8_t>& tail_bytes = tail.bytes();
  bytes.insert(bytes.end(), tail_bytes.begin(), tail_bytes.end());
  durability::write_file_atomic(dir + "/" + kManifestFile, bytes);
}

Manifest read_manifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  if (!durability::file_exists(path)) {
    throw DurabilityError("no manifest at " + path +
                          " — not a durable run directory");
  }
  const std::vector<std::uint8_t> bytes = durability::read_file(path);
  if (bytes.size() < sizeof(kManifestMagic) + 8) {
    throw DurabilityError("manifest too short: " + path);
  }
  Decoder crc_dec(bytes.data() + bytes.size() - 4, 4);
  const std::uint32_t want = crc_dec.u32();
  const std::uint32_t got = durability::crc32(bytes.data(), bytes.size() - 4);
  if (want != got) {
    throw DurabilityError("manifest CRC mismatch: " + path);
  }
  Decoder dec(bytes.data(), bytes.size() - 4);
  char magic[4];
  for (char& ch : magic) ch = static_cast<char>(dec.u8());
  if (std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
    throw DurabilityError("bad manifest magic: " + path);
  }
  const std::uint32_t version = dec.u32();
  if (version != kManifestVersion) {
    throw DurabilityError("unsupported manifest version " +
                          std::to_string(version) + ": " + path);
  }
  Manifest manifest;
  fields(dec, manifest);
  if (!dec.done()) {
    throw DurabilityError("trailing bytes after manifest: " + path);
  }
  return manifest;
}

std::unique_ptr<RestoredRun> restore_run(const std::string& dir) {
  auto run = std::make_unique<RestoredRun>();
  run->manifest = read_manifest(dir);
  run->manifest.framework.durability.dir = dir;  // the manifest moved with it
  run->testbed =
      sim::build_scenario(run->sim, run->manifest.scenario,
                          run->manifest.config);
  run->framework = std::make_unique<Framework>(run->sim, run->testbed,
                                               run->manifest.framework);
  durability::DurabilityPlane* plane = run->framework->durability_plane();
  if (plane == nullptr) {
    throw DurabilityError(
        "restore: manifest has durability disabled — nothing to recover");
  }
  run->reference_lsn = plane->reference_last_lsn();
  run->reference_horizon = plane->reference_horizon();
  run->recovered = run->reference_lsn > 0;
  run->warning = plane->reference_warning();
  if (run->recovered) {
    ARC_INFO << "recovery: re-executing " << run->manifest.scenario
             << " to LSN " << run->reference_lsn << " (t="
             << run->reference_horizon.as_seconds()
             << "s) with catchup verification";
  }
  // start() journals snapshot-0 — already under catchup verification, so a
  // config/code change that altered even the initial model fails loudly
  // here, not minutes into the replay.
  run->framework->start();
  run->testbed.start();
  return run;
}

RecoveryResult run_with_recovery(const RecoveryOptions& options) {
  if (options.dir.empty()) {
    throw DurabilityError("run_with_recovery: durable dir required");
  }
  durability::ensure_dir(options.dir);

  Manifest manifest;
  manifest.scenario = options.scenario;
  manifest.config = options.config;
  manifest.framework = options.framework;
  adopt_scenario_fault(manifest.framework, manifest.config);
  manifest.framework.durability.dir = options.dir;
  write_manifest(options.dir, manifest);

  const SimTime horizon = options.horizon > SimTime::zero()
                              ? options.horizon
                              : manifest.config.horizon;

  std::vector<fault::CrashPoint> points = options.crashes.points;
  std::sort(points.begin(), points.end(),
            [](const fault::CrashPoint& a, const fault::CrashPoint& b) {
              return a.at < b.at;
            });

  RecoveryResult result;
  std::size_t next = 0;
  for (;;) {
    std::unique_ptr<RestoredRun> run = restore_run(options.dir);
    ++result.segments;
    if (run->recovered && !run->warning.empty()) {
      result.warnings.push_back(run->warning);
    }
    durability::DurabilityPlane* plane = run->framework->durability_plane();

    bool crashed = false;
    if (next < points.size() && points[next].at < horizon) {
      const fault::CrashPoint point = points[next];
      ++next;
      if (point.mid_snapshot) {
        // Arm at the crash time; the *next* periodic snapshot dies between
        // its tmp-file write and the rename — the torn-snapshot seam.
        RestoredRun* raw = run.get();
        plane->set_snapshot_crash_hook([raw] {
          throw fault::CrashSignal{raw->sim.now(), "mid-snapshot crash"};
        });
        run->sim.schedule_in(point.at, [plane] {
          plane->crash_next_snapshot();
        });
        try {
          run->sim.run_until(horizon);
        } catch (const fault::CrashSignal& signal) {
          ARC_WARN << "crash injected mid-snapshot at t="
                   << signal.at.as_seconds() << "s";
          crashed = true;
        }
      } else {
        run->sim.run_until(point.at);
        ARC_WARN << "crash injected at t=" << point.at.as_seconds() << "s";
        crashed = true;
      }
    } else {
      run->sim.run_until(horizon);
    }

    if (crashed) {
      ++result.crashes_survived;
      // kill -9 semantics: no gauge flush, no final sync, no close — the
      // journal ends wherever the last synced frame left it.
      plane->abandon();
      continue;  // run destroyed; next iteration restores from disk
    }

    result.final_lsn = plane->last_lsn();
    result.journal_bytes = plane->journal_bytes();
    result.repairs_committed = run->framework->engine().stats().committed;
    const std::vector<std::uint8_t> model =
        durability::encode_system(run->framework->system());
    result.model_digest = durability::fnv1a(model.data(), model.size());
    return result;  // clean destruction closes the journal
  }
}

}  // namespace arcadia::core
