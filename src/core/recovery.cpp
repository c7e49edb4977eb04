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
constexpr std::uint32_t kManifestVersion = 3;

using durability::Decoder;
using durability::DurabilityError;
using durability::Encoder;

void encode_fault(Encoder& enc, const fault::FaultProfile& f) {
  enc.boolean(f.enabled);
  enc.u64(f.seed);
  enc.f64(f.monitoring.report_loss);
  enc.f64(f.monitoring.report_dup);
  enc.f64(f.monitoring.report_delay);
  enc.sim_time(f.monitoring.delay_min);
  enc.sim_time(f.monitoring.delay_max);
  enc.f64(f.monitoring.channel_disconnect);
  enc.sim_time(f.monitoring.disconnect_min);
  enc.sim_time(f.monitoring.disconnect_max);
  enc.f64(f.repair.op_transient);
  enc.f64(f.repair.op_permanent);
  enc.sim_time(f.repair.permanent_from);
  enc.sim_time(f.repair.permanent_until);
  enc.f64(f.repair.op_stall);
  enc.sim_time(f.repair.stall_min);
  enc.sim_time(f.repair.stall_max);
  enc.f64(f.fleet.tenant_crash);
  enc.sim_time(f.fleet.crash_min);
  enc.sim_time(f.fleet.crash_max);
  enc.sim_time(f.fleet.crash_duration);
}

fault::FaultProfile decode_fault(Decoder& dec) {
  fault::FaultProfile f;
  f.enabled = dec.boolean();
  f.seed = dec.u64();
  f.monitoring.report_loss = dec.f64();
  f.monitoring.report_dup = dec.f64();
  f.monitoring.report_delay = dec.f64();
  f.monitoring.delay_min = dec.sim_time();
  f.monitoring.delay_max = dec.sim_time();
  f.monitoring.channel_disconnect = dec.f64();
  f.monitoring.disconnect_min = dec.sim_time();
  f.monitoring.disconnect_max = dec.sim_time();
  f.repair.op_transient = dec.f64();
  f.repair.op_permanent = dec.f64();
  f.repair.permanent_from = dec.sim_time();
  f.repair.permanent_until = dec.sim_time();
  f.repair.op_stall = dec.f64();
  f.repair.stall_min = dec.sim_time();
  f.repair.stall_max = dec.sim_time();
  f.fleet.tenant_crash = dec.f64();
  f.fleet.crash_min = dec.sim_time();
  f.fleet.crash_max = dec.sim_time();
  f.fleet.crash_duration = dec.sim_time();
  return f;
}

void encode_scenario(Encoder& enc, const sim::ScenarioConfig& c) {
  enc.u64(c.seed);
  enc.sim_time(c.horizon);
  enc.sim_time(c.quiescent_end);
  enc.sim_time(c.stress_start);
  enc.sim_time(c.stress_end);
  enc.f64(c.normal_rate_hz);
  enc.f64(c.stress_rate_hz);
  enc.f64(c.request_size.as_bytes());
  enc.f64(c.normal_response_mean.as_bytes());
  enc.f64(c.stress_response_size.as_bytes());
  enc.f64(c.normal_response_sigma);
  enc.sim_time(c.service_base);
  enc.sim_time(c.service_per_kb);
  enc.f64(c.service_sigma);
  enc.f64(c.link_capacity.as_bps());
  enc.f64(c.comp_sg1_phase1_mbps);
  enc.f64(c.comp_sg1_stress_mbps);
  enc.f64(c.comp_sg1_final_mbps);
  enc.f64(c.comp_sg2_phase1_mbps);
  enc.f64(c.comp_sg2_stress_mbps);
  enc.f64(c.comp_sg2_final_mbps);
  enc.boolean(c.comp_bidirectional);
  enc.sim_time(c.thresholds.max_latency);
  enc.f64(c.thresholds.max_server_load);
  enc.f64(c.thresholds.min_bandwidth.as_bps());
  enc.f64(c.thresholds.min_utilization);
  encode_fault(enc, c.fault);
  enc.i64(c.grid.groups);
  enc.i64(c.grid.servers_per_group);
  enc.i64(c.grid.clients);
  enc.i64(c.grid.clients_per_pod);
  enc.i64(c.grid.spares);
  enc.sim_time(c.flash.start);
  enc.sim_time(c.flash.end);
  enc.f64(c.flash.rate_multiplier);
  enc.sim_time(c.churn.first_outage);
  enc.sim_time(c.churn.period);
  enc.sim_time(c.churn.outage);
  enc.i64(c.churn.outages);
  enc.i64(c.fleet.tenants);
  enc.i64(c.fleet.tenant_index);
  enc.sim_time(c.fleet.phase_shift);
  enc.sim_time(c.fleet.active_duration);
}

sim::ScenarioConfig decode_scenario(Decoder& dec) {
  sim::ScenarioConfig c;
  c.seed = dec.u64();
  c.horizon = dec.sim_time();
  c.quiescent_end = dec.sim_time();
  c.stress_start = dec.sim_time();
  c.stress_end = dec.sim_time();
  c.normal_rate_hz = dec.f64();
  c.stress_rate_hz = dec.f64();
  c.request_size = DataSize::bytes(dec.f64());
  c.normal_response_mean = DataSize::bytes(dec.f64());
  c.stress_response_size = DataSize::bytes(dec.f64());
  c.normal_response_sigma = dec.f64();
  c.service_base = dec.sim_time();
  c.service_per_kb = dec.sim_time();
  c.service_sigma = dec.f64();
  c.link_capacity = Bandwidth::bps(dec.f64());
  c.comp_sg1_phase1_mbps = dec.f64();
  c.comp_sg1_stress_mbps = dec.f64();
  c.comp_sg1_final_mbps = dec.f64();
  c.comp_sg2_phase1_mbps = dec.f64();
  c.comp_sg2_stress_mbps = dec.f64();
  c.comp_sg2_final_mbps = dec.f64();
  c.comp_bidirectional = dec.boolean();
  c.thresholds.max_latency = dec.sim_time();
  c.thresholds.max_server_load = dec.f64();
  c.thresholds.min_bandwidth = Bandwidth::bps(dec.f64());
  c.thresholds.min_utilization = dec.f64();
  c.fault = decode_fault(dec);
  c.grid.groups = static_cast<int>(dec.i64());
  c.grid.servers_per_group = static_cast<int>(dec.i64());
  c.grid.clients = static_cast<int>(dec.i64());
  c.grid.clients_per_pod = static_cast<int>(dec.i64());
  c.grid.spares = static_cast<int>(dec.i64());
  c.flash.start = dec.sim_time();
  c.flash.end = dec.sim_time();
  c.flash.rate_multiplier = dec.f64();
  c.churn.first_outage = dec.sim_time();
  c.churn.period = dec.sim_time();
  c.churn.outage = dec.sim_time();
  c.churn.outages = static_cast<int>(dec.i64());
  c.fleet.tenants = static_cast<int>(dec.i64());
  c.fleet.tenant_index = static_cast<int>(dec.i64());
  c.fleet.phase_shift = dec.sim_time();
  c.fleet.active_duration = dec.sim_time();
  return c;
}

void encode_framework(Encoder& enc, const FrameworkConfig& f) {
  enc.sim_time(f.profile.max_latency);
  enc.f64(f.profile.max_server_load);
  enc.f64(f.profile.min_bandwidth.as_bps());
  enc.f64(f.profile.min_utilization);
  enc.i64(f.profile.min_replicas);
  enc.boolean(f.use_script);
  enc.str(f.script_source);
  enc.str(f.policy_name);
  enc.boolean(f.damping);
  enc.sim_time(f.settle_time);
  enc.sim_time(f.abort_cooldown);
  enc.f64(f.load_improvement);
  enc.boolean(f.plan_pipeline);
  enc.boolean(f.plan_preemption);
  enc.f64(f.plan_preempt_factor);
  enc.boolean(f.gauge_caching);
  enc.sim_time(f.gauge_costs.report_period);
  enc.sim_time(f.gauge_costs.create_cost);
  enc.sim_time(f.gauge_costs.destroy_cost);
  enc.sim_time(f.gauge_costs.relocate_cost);
  enc.sim_time(f.gauge_costs.watchdog_period);
  enc.sim_time(f.gauge_costs.stale_after);
  enc.boolean(f.remos_prequery);
  enc.boolean(f.monitoring_qos);
  enc.sim_time(f.bus_base_delay);
  enc.sim_time(f.probe_period);
  enc.sim_time(f.gauge_window);
  enc.sim_time(f.check_period);
  enc.sim_time(f.first_check);
  encode_fault(enc, f.fault);
  enc.i64(f.retry.max_attempts);
  enc.sim_time(f.retry.backoff_base);
  enc.f64(f.retry.backoff_multiplier);
  enc.sim_time(f.retry.backoff_max);
  enc.f64(f.retry.jitter);
  enc.u64(f.retry.jitter_seed);
  enc.sim_time(f.retry.op_timeout);
  enc.u8(static_cast<std::uint8_t>(f.verify));
  enc.str(f.durability.dir);
  enc.sim_time(f.durability.snapshot_period);
  enc.u32(static_cast<std::uint32_t>(f.durability.retention));
  enc.u32(static_cast<std::uint32_t>(f.durability.gauge_batch_cap));
  enc.sim_time(f.durability.sync_interval);
}

FrameworkConfig decode_framework(Decoder& dec) {
  FrameworkConfig f;
  f.profile.max_latency = dec.sim_time();
  f.profile.max_server_load = dec.f64();
  f.profile.min_bandwidth = Bandwidth::bps(dec.f64());
  f.profile.min_utilization = dec.f64();
  f.profile.min_replicas = dec.i64();
  f.use_script = dec.boolean();
  f.script_source = dec.str();
  f.policy_name = dec.str();
  f.damping = dec.boolean();
  f.settle_time = dec.sim_time();
  f.abort_cooldown = dec.sim_time();
  f.load_improvement = dec.f64();
  f.plan_pipeline = dec.boolean();
  f.plan_preemption = dec.boolean();
  f.plan_preempt_factor = dec.f64();
  f.gauge_caching = dec.boolean();
  f.gauge_costs.report_period = dec.sim_time();
  f.gauge_costs.create_cost = dec.sim_time();
  f.gauge_costs.destroy_cost = dec.sim_time();
  f.gauge_costs.relocate_cost = dec.sim_time();
  f.gauge_costs.watchdog_period = dec.sim_time();
  f.gauge_costs.stale_after = dec.sim_time();
  f.remos_prequery = dec.boolean();
  f.monitoring_qos = dec.boolean();
  f.bus_base_delay = dec.sim_time();
  f.probe_period = dec.sim_time();
  f.gauge_window = dec.sim_time();
  f.check_period = dec.sim_time();
  f.first_check = dec.sim_time();
  f.fault = decode_fault(dec);
  f.retry.max_attempts = static_cast<int>(dec.i64());
  f.retry.backoff_base = dec.sim_time();
  f.retry.backoff_multiplier = dec.f64();
  f.retry.backoff_max = dec.sim_time();
  f.retry.jitter = dec.f64();
  f.retry.jitter_seed = dec.u64();
  f.retry.op_timeout = dec.sim_time();
  f.verify = static_cast<VerifyMode>(dec.u8());
  f.durability.dir = dec.str();
  f.durability.snapshot_period = dec.sim_time();
  f.durability.retention = dec.u32();
  f.durability.gauge_batch_cap = dec.u32();
  f.durability.sync_interval = dec.sim_time();
  return f;
}

}  // namespace

void write_manifest(const std::string& dir, const Manifest& manifest) {
  Encoder enc;
  for (char ch : kManifestMagic) enc.u8(static_cast<std::uint8_t>(ch));
  enc.u32(kManifestVersion);
  enc.str(manifest.scenario);
  encode_scenario(enc, manifest.config);
  encode_framework(enc, manifest.framework);
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
  manifest.scenario = dec.str();
  manifest.config = decode_scenario(dec);
  manifest.framework = decode_framework(dec);
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
  // Mirror the experiment runner: the scenario's fault profile rides into
  // the framework unless the caller set one explicitly.
  if (!manifest.framework.fault.enabled && manifest.config.fault.enabled) {
    manifest.framework.fault = manifest.config.fault;
  }
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
