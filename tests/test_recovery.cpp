// Crash recovery end to end: the manifest codec and its byte pin,
// restore_run's refusal modes, the recovery property over three stressed
// profiles (a run killed at seeded sim-times — including between a
// snapshot's tmp write and its rename — restores, re-converges, and ends
// bit-identical to an uncrashed run), and the fleet's sweep-thread
// independence (the shared journal's bytes must not depend on detect-phase
// parallelism).
//
// These are simulation-heavy tests (each recovery segment re-executes from
// t = 0); horizons are compressed the same way examples/fault_smoke.cpp
// compresses them so the stress windows still force repairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/recovery.hpp"
#include "durability/codec.hpp"
#include "durability/io.hpp"
#include "durability/journal.hpp"
#include "fault/crash_plan.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {
namespace {

std::string scratch_dir(const std::string& name) {
  const std::string dir = "test_recovery-" + name;
  durability::ensure_dir(dir);
  for (const std::string& file : durability::list_dir(dir)) {
    durability::remove_file(dir + "/" + file);
  }
  return dir;
}

/// A profile's calibrated options with the CI-budget horizon compression,
/// as one RecoveryOptions (no crash plan — callers add one).
RecoveryOptions compressed_options(const std::string& profile,
                                   const std::string& dir) {
  ExperimentOptions base = options_for(profile);
  if (profile == "churn-mid-repair") {
    // Pull the churn outages forward so both land inside a 500 s run.
    base.scenario.horizon = SimTime::seconds(500);
    base.scenario.churn.first_outage = SimTime::seconds(100);
    base.framework.repair.preemption = true;  // the profile's intended pairing
  } else {
    // lossy-grid / grid-4x16: the fault_smoke compression.
    base.scenario.horizon = SimTime::seconds(500);
    base.scenario.stress_start = SimTime::seconds(150);
    base.scenario.stress_end = SimTime::seconds(330);
  }
  RecoveryOptions opts;
  opts.dir = dir;
  opts.scenario = profile;
  opts.config = base.scenario;
  opts.framework = base.framework;
  opts.framework.durability.snapshot_period = SimTime::seconds(90);
  return opts;
}

// ---- manifest ------------------------------------------------------------

TEST(ManifestTest, RoundTripsScenarioFrameworkAndDurabilityKnobs) {
  const std::string dir = scratch_dir("manifest");
  Manifest in;
  in.scenario = "lossy-grid";
  in.config = sim::scenario_defaults("lossy-grid");
  in.config.horizon = SimTime::seconds(456);
  in.config.fault.monitoring.report_loss = 0.07;
  in.framework.check_period = SimTime::millis(750);
  in.framework.repair.preemption = true;
  in.framework.durability.dir = "elsewhere";  // rebound on restore
  in.framework.durability.snapshot_period = SimTime::seconds(77);
  in.framework.durability.retention = 9;
  in.framework.durability.sync_interval = SimTime::seconds(11);
  write_manifest(dir, in);

  const Manifest out = read_manifest(dir);
  EXPECT_EQ(out.scenario, "lossy-grid");
  EXPECT_EQ(out.config.horizon, SimTime::seconds(456));
  EXPECT_DOUBLE_EQ(out.config.fault.monitoring.report_loss, 0.07);
  EXPECT_EQ(out.framework.check_period, SimTime::millis(750));
  EXPECT_TRUE(out.framework.repair.preemption);
  EXPECT_EQ(out.framework.durability.snapshot_period, SimTime::seconds(77));
  EXPECT_EQ(out.framework.durability.retention, 9u);
  EXPECT_EQ(out.framework.durability.sync_interval, SimTime::seconds(11));
}

TEST(ManifestTest, MissingAndCorruptManifestsRefuseLoudly) {
  const std::string dir = scratch_dir("no-manifest");
  EXPECT_THROW(read_manifest(dir), durability::DurabilityError);
  EXPECT_THROW(restore_run(dir), durability::DurabilityError);

  Manifest m;
  m.scenario = "lossy-grid";
  m.config = sim::scenario_defaults("lossy-grid");
  write_manifest(dir, m);
  std::vector<std::uint8_t> bytes =
      durability::read_file(dir + "/" + kManifestFile);
  bytes[bytes.size() / 2] ^= 0xFF;  // CRC catches a flipped config byte
  durability::write_file_atomic(dir + "/" + kManifestFile, bytes);
  EXPECT_THROW(read_manifest(dir), durability::DurabilityError);
}

TEST(ManifestTest, RefusesOtherManifestVersions) {
  // Version 1 is far older; version 3 is the layout before the strategy
  // path byte was dropped.
  for (const std::uint32_t old_version : {1u, 3u}) {
    const std::string dir = scratch_dir("manifest-version");
    Manifest m;
    m.scenario = "lossy-grid";
    m.config = sim::scenario_defaults("lossy-grid");
    write_manifest(dir, m);
    const std::string path = dir + "/" + kManifestFile;
    std::vector<std::uint8_t> bytes = durability::read_file(path);

    // Re-stamp the version (the u32 after the 4-byte magic) and re-seal the
    // CRC, so only the version check stands between this file and a decode
    // against the wrong field layout.
    durability::Encoder version;
    version.u32(old_version);
    std::copy(version.bytes().begin(), version.bytes().end(),
              bytes.begin() + 4);
    bytes.resize(bytes.size() - 4);
    durability::Encoder crc;
    crc.u32(durability::crc32(bytes.data(), bytes.size()));
    bytes.insert(bytes.end(), crc.bytes().begin(), crc.bytes().end());
    durability::write_file_atomic(path, bytes);

    const std::string expected =
        "unsupported manifest version " + std::to_string(old_version);
    try {
      read_manifest(dir);
      FAIL() << "a version-" << old_version << " manifest was accepted";
    } catch (const durability::DurabilityError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(ManifestTest, RefusesOutOfRangeVerifyMode) {
  const std::string dir = scratch_dir("manifest-verify-mode");
  Manifest m;
  m.scenario = "lossy-grid";
  m.config = sim::scenario_defaults("lossy-grid");
  m.framework.durability.dir = "d";
  write_manifest(dir, m);
  const std::string path = dir + "/" + kManifestFile;
  std::vector<std::uint8_t> bytes = durability::read_file(path);

  // The VerifyMode byte sits just before the durability options: dir (u32
  // length + 1 byte), snapshot_period (8), retention (4), gauge_batch_cap
  // (4), sync_interval (8), then the 4-byte CRC.
  const std::size_t verify_at = bytes.size() - 4 - 8 - 4 - 4 - 8 - 5 - 1;
  ASSERT_EQ(bytes[verify_at], static_cast<std::uint8_t>(VerifyMode::Warn));
  bytes[verify_at] = 9;
  bytes.resize(bytes.size() - 4);
  durability::Encoder crc;
  crc.u32(durability::crc32(bytes.data(), bytes.size()));
  bytes.insert(bytes.end(), crc.bytes().begin(), crc.bytes().end());
  durability::write_file_atomic(path, bytes);

  EXPECT_THROW(read_manifest(dir), durability::DurabilityError);
}

/// A manifest in which every encoded field differs from its default, so the
/// pin below moves if any field is dropped, reordered or re-typed.
Manifest every_field_set() {
  Manifest m;
  m.scenario = "lossy-grid";
  sim::ScenarioConfig& c = m.config;
  c.seed = 4711;
  c.horizon = SimTime::seconds(901);
  c.quiescent_end = SimTime::seconds(121);
  c.stress_start = SimTime::seconds(601);
  c.stress_end = SimTime::seconds(1201);
  c.normal_rate_hz = 1.5;
  c.stress_rate_hz = 2.5;
  c.request_size = DataSize::bytes(513);
  c.normal_response_mean = DataSize::kilobytes(11);
  c.stress_response_size = DataSize::kilobytes(21);
  c.normal_response_sigma = 0.55;
  c.service_base = SimTime::millis(51);
  c.service_per_kb = SimTime::millis(21);
  c.service_sigma = 0.25;
  c.link_capacity = Bandwidth::mbps(11.0);
  c.comp_sg1_phase1_mbps = 9.5;
  c.comp_sg1_stress_mbps = 5.5;
  c.comp_sg1_final_mbps = 3.5;
  c.comp_sg2_phase1_mbps = 3.25;
  c.comp_sg2_stress_mbps = 2.25;
  c.comp_sg2_final_mbps = 0.75;
  c.comp_bidirectional = true;
  c.thresholds.max_latency = SimTime::millis(2100);
  fault::FaultProfile& f = c.fault;
  f.enabled = true;
  f.seed = 0xBEEF;
  f.monitoring.report_loss = 0.01;
  f.monitoring.report_dup = 0.02;
  f.monitoring.report_delay = 0.03;
  f.monitoring.delay_min = SimTime::millis(1100);
  f.monitoring.delay_max = SimTime::millis(5100);
  f.monitoring.channel_disconnect = 0.04;
  f.monitoring.disconnect_min = SimTime::seconds(11);
  f.monitoring.disconnect_max = SimTime::seconds(31);
  f.repair.op_transient = 0.05;
  f.repair.op_permanent = 0.06;
  f.repair.permanent_from = SimTime::seconds(100);
  f.repair.permanent_until = SimTime::seconds(200);
  f.repair.op_stall = 0.07;
  f.repair.stall_min = SimTime::seconds(21);
  f.repair.stall_max = SimTime::seconds(41);
  f.fleet.tenant_crash = 0.08;
  f.fleet.crash_min = SimTime::seconds(61);
  f.fleet.crash_max = SimTime::seconds(181);
  f.fleet.crash_duration = SimTime::seconds(62);
  c.grid = {5, 3, 17, 5, 3};
  c.flash = {SimTime::seconds(301), SimTime::seconds(601), 6.5};
  c.churn = {SimTime::seconds(241), SimTime::seconds(301),
             SimTime::seconds(121), 4};
  c.fleet = {5, 2, SimTime::seconds(61), SimTime::seconds(400)};

  FrameworkConfig& w = m.framework;
  w.profile.max_latency = SimTime::millis(2200);
  w.profile.max_server_load = 7.0;
  w.profile.min_bandwidth = Bandwidth::kbps(12.0);
  w.profile.min_utilization = 0.22;
  w.profile.min_replicas = 3;
  w.script_source = "tactic t() : boolean = { return true; }";
  w.repair.policy_name = "worst-first";
  w.repair.damping = false;
  w.repair.settle_time = SimTime::seconds(31);
  w.repair.abort_cooldown = SimTime::seconds(61);
  w.repair.load_improvement = 2.5;
  w.repair.use_plan = false;
  w.repair.preemption = true;
  w.repair.preempt_factor = 2.5;
  w.gauge_costs.caching = true;
  w.gauge_costs.report_period = SimTime::seconds(6);
  w.gauge_costs.create_cost = SimTime::seconds(13);
  w.gauge_costs.destroy_cost = SimTime::seconds(4);
  w.gauge_costs.relocate_cost = SimTime::seconds(2);
  w.gauge_costs.watchdog_period = SimTime::seconds(7);
  w.gauge_costs.stale_after = SimTime::seconds(16);
  w.remos_prequery = false;
  w.monitoring_qos = true;
  w.bus_base_delay = SimTime::millis(55);
  w.probe_period = SimTime::millis(1100);
  w.gauge_window = SimTime::seconds(33);
  w.check_period = SimTime::millis(5500);
  w.first_check = SimTime::seconds(16);
  w.fault = f;
  w.fault.seed = 0xCAFE;
  w.repair.retry.max_attempts = 5;
  w.repair.retry.backoff_base = SimTime::seconds(3);
  w.repair.retry.backoff_multiplier = 2.5;
  w.repair.retry.backoff_max = SimTime::seconds(65);
  w.repair.retry.jitter = 0.3;
  w.repair.retry.jitter_seed = 0x5EED;
  w.repair.retry.op_timeout = SimTime::seconds(45);
  w.verify = VerifyMode::Error;
  w.durability.dir = "format-pin";
  w.durability.snapshot_period = SimTime::seconds(121);
  w.durability.retention = 4;
  w.durability.gauge_batch_cap = 257;
  w.durability.sync_interval = SimTime::seconds(31);
  return m;
}

TEST(DurabilityFormatTest, ManifestIsPinned) {
  const std::string dir = scratch_dir("manifest-format");
  write_manifest(dir, every_field_set());
  const std::vector<std::uint8_t> bytes =
      durability::read_file(dir + "/" + kManifestFile);
  EXPECT_EQ(bytes.size(), 972u);
  EXPECT_EQ(durability::fnv1a(bytes), 0xe59c36f71f49470cull)
      << std::hex << "0x" << durability::fnv1a(bytes);

  // Decoding restores every field: re-encoding what was read reproduces
  // the file byte for byte.
  const std::string again = scratch_dir("manifest-format-again");
  write_manifest(again, read_manifest(dir));
  EXPECT_EQ(durability::read_file(again + "/" + kManifestFile), bytes);
}

// ---- the recovery property ----------------------------------------------

/// Clean run and crashed run of the same profile must be indistinguishable
/// at the horizon: same model digest, same repair count, byte-identical
/// journal. Crash points are seeded per profile; every second one fires in
/// the snapshot rename gap.
void expect_recovery_invariant(const std::string& profile,
                               std::uint64_t crash_seed) {
  const RecoveryResult clean = run_with_recovery(
      compressed_options(profile, scratch_dir(profile + "-clean")));
  ASSERT_GT(clean.repairs_committed, 0u)
      << profile << ": baseline forced no repairs — the profile is idle";

  RecoveryOptions crash_opts =
      compressed_options(profile, scratch_dir(profile + "-crash"));
  crash_opts.crashes = fault::CrashPlan::seeded(
      crash_seed, 3, SimTime::seconds(100),
      crash_opts.config.horizon - SimTime::seconds(60),
      /*mid_snapshot_every=*/2);
  const RecoveryResult crashed = run_with_recovery(crash_opts);

  EXPECT_GT(crashed.crashes_survived, 0) << profile;
  EXPECT_EQ(crashed.segments, crashed.crashes_survived + 1) << profile;
  EXPECT_EQ(crashed.model_digest, clean.model_digest) << profile;
  EXPECT_EQ(crashed.repairs_committed, clean.repairs_committed) << profile;
  EXPECT_EQ(crashed.final_lsn, clean.final_lsn) << profile;

  const auto clean_journal = durability::read_file(
      "test_recovery-" + profile + "-clean/" + durability::kJournalFile);
  const auto crashed_journal = durability::read_file(
      "test_recovery-" + profile + "-crash/" + durability::kJournalFile);
  EXPECT_EQ(clean_journal, crashed_journal)
      << profile << ": restored run's journal is not bit-identical";
}

TEST(RecoveryPropertyTest, GridSurvivesSeededCrashes) {
  expect_recovery_invariant("grid-4x16", 0xA11CE);
}

TEST(RecoveryPropertyTest, LossyGridSurvivesSeededCrashes) {
  expect_recovery_invariant("lossy-grid", 0xB0B);
}

TEST(RecoveryPropertyTest, ChurnMidRepairSurvivesSeededCrashes) {
  expect_recovery_invariant("churn-mid-repair", 0xCA11);
}

TEST(RecoveryTest, RestoreRunReexecutesToReferenceAndContinues) {
  const std::string dir = scratch_dir("restore-run");
  const RecoveryOptions opts = compressed_options("grid-4x16", dir);
  Manifest manifest;
  manifest.scenario = opts.scenario;
  manifest.config = opts.config;
  manifest.framework = opts.framework;
  manifest.framework.durability.dir = dir;
  write_manifest(dir, manifest);

  // First build: run into the repair window, then die without flushing —
  // the un-synced pending tail is lost, exactly like a kill -9.
  {
    auto first = restore_run(dir);
    EXPECT_FALSE(first->recovered);
    EXPECT_EQ(first->reference_lsn, 0u);
    first->sim.run_until(SimTime::seconds(250));
    first->framework->durability_plane()->abandon();
  }

  // Restore by hand and drive the clock: catchup must byte-verify without
  // a divergence throw and leave the run live past the reference.
  auto run = restore_run(dir);
  EXPECT_TRUE(run->recovered);
  EXPECT_GT(run->reference_lsn, 0u);
  EXPECT_LE(run->reference_horizon, SimTime::seconds(250));
  run->run_to_reference();
  EXPECT_EQ(run->sim.now(), run->reference_horizon);
  run->sim.run_until(SimTime::seconds(300));  // continues past the reference
}

// ---- fleet: sweep-thread independence ------------------------------------

std::vector<std::uint8_t> run_durable_fleet(int sweep_threads,
                                            std::size_t sim_threads,
                                            const std::string& dir) {
  sim::Simulator sim;
  FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 4;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  opt.config.quiescent_end = SimTime::seconds(40);
  opt.config.normal_rate_hz = 2.5;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.config.fleet.active_duration = SimTime::seconds(40);
  opt.framework.monitoring_qos = true;
  opt.framework.gauge_costs.report_period = SimTime::millis(250);
  opt.framework.check_period = SimTime::seconds(1);
  opt.manager.coalesce_window = SimTime::seconds(1);
  opt.manager.sweep_threads = sweep_threads;
  opt.coordinated = true;
  opt.sim_threads = sim_threads;
  opt.durability.dir = scratch_dir(dir);
  auto fleet = std::make_unique<Fleet>(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(180));
  fleet.reset();  // closes the shared plane cleanly
  return durability::read_file(opt.durability.dir + "/" +
                               durability::kJournalFile);
}

TEST(FleetDurabilityTest, JournalBytesIdenticalAcrossSweepThreads) {
  const auto serial = run_durable_fleet(1, 1, "fleet-t1");
  const auto parallel = run_durable_fleet(4, 1, "fleet-t4");
  ASSERT_GT(serial.size(), durability::kJournalHeaderSize);
  EXPECT_EQ(serial, parallel)
      << "shared journal bytes depend on sweep-thread count — the ordered-"
         "dispatch contract is broken";
}

TEST(FleetDurabilityTest, JournalBytesIdenticalAcrossSimThreads) {
  // Sharded kernel: workers journal into per-shard staging sinks, drained
  // at window barriers in (time, shard, emission) order. The bytes that
  // reach the shared plane must be independent of how many workers ran the
  // windows — this is the durability half of the determinism contract.
  const auto one = run_durable_fleet(2, 1, "fleet-s1");
  const auto four = run_durable_fleet(2, 4, "fleet-s4");
  ASSERT_GT(one.size(), durability::kJournalHeaderSize);
  EXPECT_EQ(one, four)
      << "shared journal bytes depend on simulation-thread count — the "
         "staged-drain merge order is broken";
}

}  // namespace
}  // namespace arcadia::core
