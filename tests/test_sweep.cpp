/**
 * @file
 * Sweep subsystem tests (src/sweep): manifest parsing/validation and
 * the content-addressed campaign hash, deterministic odometer
 * expansion, the knob vocabulary, the crash-safe journal (round trip,
 * torn tails, bit rot, foreign records, compaction), campaign-level
 * chaos for every sweep:* fault site, and the acceptance path through
 * the real binary: SIGKILL mid-campaign, --resume, byte-identical
 * aggregate with zero completed points recomputed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "gen/generator.hpp"
#include "sweep/campaign.hpp"
#include "sweep/journal.hpp"
#include "sweep/manifest.hpp"

namespace fs = std::filesystem;
using namespace gs;

namespace
{

/** Fresh mkdtemp directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "gsweep-XXXXXX").string();
        char *p = ::mkdtemp(tmpl.data());
        EXPECT_NE(p, nullptr);
        path = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** Disarm the global injector on scope exit, whatever happens. */
struct DisarmAtExit
{
    ~DisarmAtExit() { faultInjector().disarm(); }
};

void
arm(const std::string &spec)
{
    std::string err;
    ASSERT_TRUE(faultInjector().configure(spec, &err)) << err;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Run the real CLI with an environment prefix, capturing stdout and
 *  stderr into files; returns the raw wait status. */
int
runCli(const std::string &envPrefix, const std::string &args,
       const std::string &outFile, const std::string &errFile)
{
    const std::string cmd = envPrefix + " '" GS_CLI_PATH "' " + args +
                            " > '" + outFile + "' 2> '" + errFile + "'";
    return std::system(cmd.c_str());
}

/** The 2x2 campaign every test sweeps: small and fast, but covering
 *  two axes and both workload and architecture knobs. */
const char *kManifestText = R"({
  "schema": "gscalar.sweep.v1",
  "name": "t2x2",
  "base": {"seed": 1},
  "axes": [
    {"knob": "workload", "values": ["BT", "BP"]},
    {"knob": "mode", "values": ["baseline", "gscalar"]}
  ]
})";

SweepManifest
parseOrDie(const std::string &text)
{
    std::string err;
    const std::optional<SweepManifest> m =
        SweepManifest::parse(text, &err);
    EXPECT_TRUE(m.has_value()) << err;
    return *m;
}

std::vector<SweepPoint>
expandOrDie(const SweepManifest &m)
{
    std::string err;
    const std::optional<std::vector<SweepPoint>> points =
        m.expand(&err);
    EXPECT_TRUE(points.has_value()) << err;
    return *points;
}

/** A synthetic result for journal tests (no simulation needed). */
RunResult
makeResult(const SweepPoint &p, std::uint64_t cycles)
{
    RunResult r;
    r.workload = p.workload;
    r.mode = p.cfg.mode;
    r.ev.cycles = cycles;
    r.ev.warpInsts = cycles * 2;
    r.power.totalW = 30.0;
    return r;
}

} // namespace

// ---- manifest -----------------------------------------------------------

TEST(SweepManifest, ValidManifestParsesAndHashes)
{
    const SweepManifest m = parseOrDie(kManifestText);
    EXPECT_EQ(m.name(), "t2x2");
    ASSERT_EQ(m.base().size(), 1u);
    EXPECT_EQ(m.base()[0].first, "seed");
    ASSERT_EQ(m.axes().size(), 2u);
    EXPECT_EQ(m.axes()[0].knob, "workload");
    EXPECT_EQ(m.axes()[1].values.size(), 2u);
    EXPECT_EQ(m.pointCount(), 4u);
    EXPECT_EQ(m.campaignId().size(), 16u);

    // The hash is content-addressed: whitespace and member order do
    // not matter, any semantic change does.
    const SweepManifest reordered = parseOrDie(
        "{\"axes\":[{\"values\":[\"BT\",\"BP\"],\"knob\":\"workload\"},"
        "{\"knob\":\"mode\",\"values\":[\"baseline\",\"gscalar\"]}],"
        "\"base\":{\"seed\":1},\"name\":\"t2x2\","
        "\"schema\":\"gscalar.sweep.v1\"}");
    EXPECT_EQ(reordered.campaignHash(), m.campaignHash());

    std::string edited = kManifestText;
    const std::size_t at = edited.find("\"seed\": 1");
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, 9, "\"seed\": 2");
    EXPECT_NE(parseOrDie(edited).campaignHash(), m.campaignHash());
}

TEST(SweepManifest, MalformedManifestsAreRejected)
{
    const char *bad[] = {
        // not JSON at all / trailing garbage
        "",
        "nonsense",
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]} trailing",
        // wrong or missing schema
        "{\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
        "{\"schema\":\"gscalar.sweep.v2\",\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
        // bad campaign names
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a b\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
        // unknown top-level key
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\",\"extra\":1,"
        "\"axes\":[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
        // unknown knob / bad values
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"bogus\",\"values\":[\"1\"]}]}",
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"NOPE\"]}]}",
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\","
        "\"base\":{\"mode\":\"bogus\"},\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
        // duplicate knob across base and axes; duplicate axis value
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\","
        "\"base\":{\"warp\":32},\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]},"
        "{\"knob\":\"warp\",\"values\":[\"16\",\"32\"]}]}",
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\",\"BT\"]}]}",
        // empty axis; workload neither pinned nor swept
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[]}]}",
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\",\"axes\":"
        "[{\"knob\":\"warp\",\"values\":[\"16\",\"32\"]}]}",
        // numbers must be integers; duplicate JSON keys are hostile
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\","
        "\"base\":{\"seed\":1.5},\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
        "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\","
        "\"name\":\"b\",\"axes\":"
        "[{\"knob\":\"workload\",\"values\":[\"BT\"]}]}",
    };
    for (const char *text : bad) {
        std::string err;
        EXPECT_FALSE(SweepManifest::parse(text, &err).has_value())
            << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(SweepManifest, MalformedGenWorkloadIsAParseError)
{
    // The gen resolver's check only parses: a malformed spec is an
    // error from parse(), never a process exit.
    registerGenWorkloads();
    std::string err;
    EXPECT_FALSE(SweepManifest::parse(
                     "{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\","
                     "\"axes\":[{\"knob\":\"workload\","
                     "\"values\":[\"BT\",\"gen:bogus\"]}]}",
                     &err)
                     .has_value());
    EXPECT_NE(err.find("gen:bogus"), std::string::npos) << err;
    EXPECT_NE(err.find("wants knob=value"), std::string::npos) << err;
    parseOrDie("{\"schema\":\"gscalar.sweep.v1\",\"name\":\"a\","
               "\"axes\":[{\"knob\":\"workload\","
               "\"values\":[\"gen:seed=3,ops=8\"]}]}");
}

TEST(SweepManifest, ExpansionIsAnOdometerOverTheAxes)
{
    const SweepManifest m = parseOrDie(kManifestText);
    const std::vector<SweepPoint> points = expandOrDie(m);
    ASSERT_EQ(points.size(), 4u);

    // Declaration order, last axis fastest.
    EXPECT_EQ(points[0].workload, "BT");
    EXPECT_EQ(points[0].cfg.mode, ArchMode::Baseline);
    EXPECT_EQ(points[1].workload, "BT");
    EXPECT_EQ(points[1].cfg.mode, ArchMode::GScalarFull);
    EXPECT_EQ(points[2].workload, "BP");
    EXPECT_EQ(points[2].cfg.mode, ArchMode::Baseline);
    EXPECT_EQ(points[3].workload, "BP");
    EXPECT_EQ(points[3].cfg.mode, ArchMode::GScalarFull);
    EXPECT_EQ(points[3].index, 3u);
    EXPECT_EQ(points[0].label(), "workload=BT mode=baseline");

    // The base knob reached every point; fingerprints are distinct and
    // reproducible (a second expansion is identical).
    const std::vector<SweepPoint> again = expandOrDie(m);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].cfg.seed, 1u);
        EXPECT_EQ(points[i].fingerprint(), again[i].fingerprint());
        for (std::size_t j = i + 1; j < points.size(); ++j)
            EXPECT_NE(points[i].fingerprint(),
                      points[j].fingerprint());
    }
}

TEST(SweepManifest, KnobVocabularyAppliesAndValidates)
{
    registerGenWorkloads(); // "gen:..." sweep values must resolve
    ArchConfig cfg;
    std::string w;
    EXPECT_TRUE(applySweepKnob(cfg, w, "workload", "BT").empty());
    EXPECT_EQ(w, "BT");
    EXPECT_TRUE(
        applySweepKnob(cfg, w, "workload", "gen:seed=7").empty());
    EXPECT_TRUE(applySweepKnob(cfg, w, "mode", "alu-scalar").empty());
    EXPECT_EQ(cfg.mode, ArchMode::AluScalar);
    EXPECT_TRUE(applySweepKnob(cfg, w, "codec", "bdi").empty());
    EXPECT_TRUE(applySweepKnob(cfg, w, "warp", "64").empty());
    EXPECT_EQ(cfg.warpSize, 64u);
    EXPECT_TRUE(applySweepKnob(cfg, w, "sms", "4").empty());
    EXPECT_TRUE(applySweepKnob(cfg, w, "seed", "42").empty());
    EXPECT_TRUE(
        applySweepKnob(cfg, w, "check-granularity", "8").empty());
    EXPECT_TRUE(applySweepKnob(cfg, w, "scalar-banks", "2").empty());
    EXPECT_TRUE(applySweepKnob(cfg, w, "half-reg", "false").empty());
    EXPECT_FALSE(cfg.halfRegisterCompression);
    EXPECT_TRUE(applySweepKnob(cfg, w, "smov", "true").empty());
    EXPECT_TRUE(
        applySweepKnob(cfg, w, "compiler-smov", "false").empty());
    EXPECT_TRUE(
        applySweepKnob(cfg, w, "scalar-occupancy", "true").empty());
    EXPECT_TRUE(
        applySweepKnob(cfg, w, "max-cycles", "100000").empty());
    EXPECT_EQ(cfg.maxCycles, 100000u);

    // Bad values name the knob; unknown knobs list the vocabulary.
    EXPECT_NE(applySweepKnob(cfg, w, "warp", "0").find("warp"),
              std::string::npos);
    EXPECT_FALSE(applySweepKnob(cfg, w, "warp", "2000").empty());
    EXPECT_FALSE(applySweepKnob(cfg, w, "mode", "bogus").empty());
    EXPECT_FALSE(applySweepKnob(cfg, w, "codec", "bogus").empty());
    EXPECT_FALSE(applySweepKnob(cfg, w, "half-reg", "yes").empty());
    EXPECT_FALSE(applySweepKnob(cfg, w, "seed", "-1").empty());
    EXPECT_FALSE(
        applySweepKnob(cfg, w, "seed", "18446744073709551616").empty());
    EXPECT_FALSE(applySweepKnob(cfg, w, "sms", "4294967297").empty());
    EXPECT_FALSE(applySweepKnob(cfg, w, "sms", "4097").empty());
    EXPECT_NE(
        applySweepKnob(cfg, w, "nope", "1").find("unknown sweep knob"),
        std::string::npos);
}

// ---- journal ------------------------------------------------------------

TEST(SweepJournal, AppendLoadRoundTrip)
{
    TempDir tmp;
    const SweepManifest m = parseOrDie(kManifestText);
    const std::vector<SweepPoint> points = expandOrDie(m);

    {
        SweepJournal journal(tmp.path);
        for (std::size_t i = 0; i < 3; ++i)
            ASSERT_TRUE(
                journal.append(points[i], makeResult(points[i], 100 + i)));
        EXPECT_EQ(journal.stats().appended, 3u);
    }

    SweepJournal journal(tmp.path);
    const auto replayed = journal.load(points);
    ASSERT_EQ(replayed.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(replayed.count(i));
        EXPECT_EQ(replayed.at(i).ev.cycles, 100u + i);
        EXPECT_EQ(replayed.at(i).workload, points[i].workload);
    }
    const SweepJournalStats stats = journal.stats();
    EXPECT_EQ(stats.replayed, 3u);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.compactions, 0u);
    EXPECT_FALSE(fs::exists(journal.quarantinePath()));
}

TEST(SweepJournal, TornTailIsQuarantinedAndCompacted)
{
    TempDir tmp;
    healthCounters().reset();
    const SweepManifest m = parseOrDie(kManifestText);
    const std::vector<SweepPoint> points = expandOrDie(m);

    {
        SweepJournal journal(tmp.path);
        for (std::size_t i = 0; i < 2; ++i)
            ASSERT_TRUE(
                journal.append(points[i], makeResult(points[i], 7)));
    }
    // A crash mid-write leaves a torn final line with no newline.
    {
        std::ofstream f((fs::path(tmp.path) / "journal.jsonl").string(),
                        std::ios::binary | std::ios::app);
        f << "{\"v\":1,\"point\":2,\"fp\":\"0123";
    }

    SweepJournal journal(tmp.path);
    const auto replayed = journal.load(points);
    EXPECT_EQ(replayed.size(), 2u);
    EXPECT_EQ(journal.stats().quarantined, 1u);
    EXPECT_EQ(journal.stats().compactions, 1u);
    EXPECT_TRUE(fs::exists(journal.quarantinePath()));
    EXPECT_GE(healthCounters().snapshot().sweepJournalRecoveries, 1u);

    // Compaction repaired the file in place: a fresh load is clean.
    SweepJournal again(tmp.path);
    EXPECT_EQ(again.load(points).size(), 2u);
    EXPECT_EQ(again.stats().quarantined, 0u);
    EXPECT_EQ(again.stats().compactions, 0u);
    healthCounters().reset();
}

TEST(SweepJournal, BitRotAndForeignRecordsAreQuarantined)
{
    TempDir tmp;
    const SweepManifest m = parseOrDie(kManifestText);
    const std::vector<SweepPoint> points = expandOrDie(m);

    {
        SweepJournal journal(tmp.path);
        ASSERT_TRUE(journal.append(points[0], makeResult(points[0], 1)));
        ASSERT_TRUE(journal.append(points[1], makeResult(points[1], 2)));
    }
    // Flip one byte in the middle of the first record.
    const std::string path =
        (fs::path(tmp.path) / "journal.jsonl").string();
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(40);
        char c = 0;
        f.seekg(40);
        f.get(c);
        f.seekp(40);
        f.put(char(c ^ 0x04));
    }
    {
        SweepJournal journal(tmp.path);
        const auto replayed = journal.load(points);
        EXPECT_EQ(replayed.size(), 1u);
        EXPECT_FALSE(replayed.count(0));
        EXPECT_EQ(journal.stats().quarantined, 1u);
    }

    // A record journaled for a *different* campaign configuration must
    // never replay: same indices, different fingerprints.
    std::string edited = kManifestText;
    const std::size_t at = edited.find("\"seed\": 1");
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, 9, "\"seed\": 9");
    const std::vector<SweepPoint> foreign =
        expandOrDie(parseOrDie(edited));
    SweepJournal journal(tmp.path);
    EXPECT_TRUE(journal.load(foreign).empty());
    EXPECT_GE(journal.stats().quarantined, 1u);
}

TEST(SweepJournal, InjectedTornWriteAndBitFlipAreCaughtOnLoad)
{
    const SweepManifest m = parseOrDie(kManifestText);
    const std::vector<SweepPoint> points = expandOrDie(m);

    DisarmAtExit cleanup;
    for (const char *kind : {"journal-torn-write", "journal-bit-flip"}) {
        TempDir tmp;
        arm(std::string("sweep:") + kind + ":1");
        {
            SweepJournal journal(tmp.path);
            ASSERT_TRUE(
                journal.append(points[0], makeResult(points[0], 5)));
        }
        faultInjector().disarm();
        SweepJournal journal(tmp.path);
        EXPECT_TRUE(journal.load(points).empty()) << kind;
        EXPECT_EQ(journal.stats().quarantined, 1u) << kind;
        EXPECT_EQ(journal.stats().compactions, 1u) << kind;
    }
}

// ---- campaign runner ----------------------------------------------------

TEST(SweepCampaign, RunsEveryPointAndAggregatesDeterministically)
{
    TempDir tmp;
    const SweepManifest m = parseOrDie(kManifestText);
    SweepOptions opts;
    opts.sweepDir = tmp.path;

    const SweepOutcome outcome = runSweepCampaign(m, opts);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.points, 4u);
    EXPECT_EQ(outcome.computed, 4u);
    EXPECT_EQ(outcome.replayed, 0u);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_NE(outcome.aggregate.text.find("Sweep t2x2: 4 points"),
              std::string::npos);
    EXPECT_EQ(outcome.aggregate.runs.size(), 4u);

    // The campaign directory is content-addressed and fully published.
    EXPECT_EQ(fs::path(outcome.campaignDir).filename().string(),
              m.campaignId());
    EXPECT_TRUE(fs::exists(fs::path(outcome.campaignDir) /
                           "manifest.json"));
    EXPECT_TRUE(
        fs::exists(fs::path(outcome.campaignDir) / "journal.jsonl"));
    const std::string results = slurp(
        (fs::path(outcome.campaignDir) / "results.jsonl").string());
    EXPECT_EQ(std::count(results.begin(), results.end(), '\n'), 4);
    EXPECT_NE(results.find("\"schema\":\"gscalar.bench.v1\""),
              std::string::npos);

    // --resume with a complete journal replays everything and still
    // renders the identical aggregate.
    SweepOptions resume = opts;
    resume.resume = true;
    const SweepOutcome replayed = runSweepCampaign(m, resume);
    EXPECT_EQ(replayed.replayed, 4u);
    EXPECT_EQ(replayed.computed, 0u);
    EXPECT_EQ(replayed.aggregate.text, outcome.aggregate.text);
    healthCounters().reset();
}

TEST(SweepCampaign, JournalFaultsNeverChangeTheAggregate)
{
    TempDir cleanDir;
    const SweepManifest m = parseOrDie(kManifestText);
    SweepOptions cleanOpts;
    cleanOpts.sweepDir = cleanDir.path;
    const SweepOutcome clean = runSweepCampaign(m, cleanOpts);
    ASSERT_TRUE(clean.ok());

    DisarmAtExit cleanup;
    for (const char *kind : {"journal-torn-write", "journal-bit-flip"}) {
        TempDir tmp;
        healthCounters().reset();
        SweepOptions opts;
        opts.sweepDir = tmp.path;

        // Every journal append is corrupted, yet the live aggregate is
        // untouched (the journal only feeds --resume).
        arm(std::string("sweep:") + kind + ":1");
        const SweepOutcome faulted = runSweepCampaign(m, opts);
        EXPECT_EQ(faulted.aggregate.text, clean.aggregate.text) << kind;
        faultInjector().disarm();

        // Resume finds only corrupt records: all quarantined, every
        // point recomputed, byte-identical output — recovery counted.
        SweepOptions resume = opts;
        resume.resume = true;
        const SweepOutcome recovered = runSweepCampaign(m, resume);
        EXPECT_EQ(recovered.aggregate.text, clean.aggregate.text)
            << kind;
        EXPECT_EQ(recovered.replayed, 0u) << kind;
        EXPECT_EQ(recovered.computed, 4u) << kind;
        EXPECT_GE(healthCounters().snapshot().sweepJournalRecoveries,
                  4u)
            << kind;
    }
    healthCounters().reset();
}

TEST(SweepCampaign, DaemonLostDegradesToInProcessExecution)
{
    TempDir cleanDir;
    const SweepManifest m = parseOrDie(kManifestText);
    SweepOptions cleanOpts;
    cleanOpts.sweepDir = cleanDir.path;
    const SweepOutcome clean = runSweepCampaign(m, cleanOpts);
    ASSERT_TRUE(clean.ok());

    DisarmAtExit cleanup;
    healthCounters().reset();
    TempDir tmp;
    SweepOptions opts;
    opts.sweepDir = tmp.path;
    opts.socketPath =
        (fs::path(tmp.path) / "no-such-daemon.sock").string();

    // Every daemon submit dies: the ladder degrades after
    // kDaemonDegradeThreshold consecutive failures and every point is
    // computed in process — a lost fleet never fails a campaign.
    arm("sweep:daemon-lost:1");
    const SweepOutcome outcome = runSweepCampaign(m, opts);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.daemonFallbacks, 4u);
    EXPECT_EQ(outcome.aggregate.text, clean.aggregate.text);
    const HealthCounts h = healthCounters().snapshot();
    EXPECT_GE(h.sweepDaemonFallbacks, 4u);
    EXPECT_GE(h.sweepPointRetries, 1u);
    healthCounters().reset();
}

// ---- acceptance: SIGKILL mid-campaign through the real binary -----------

TEST(SweepCli, PointCrashThenResumeIsByteIdenticalWithNoRecompute)
{
    TempDir tmp;
    const std::string manifest = tmp.path + "/m.json";
    {
        std::ofstream f(manifest);
        f << kManifestText;
    }
    const std::string cleanOut = tmp.path + "/clean.out";
    const std::string crashOut = tmp.path + "/crash.out";
    const std::string resumeOut = tmp.path + "/resume.out";
    const std::string errFile = tmp.path + "/err";
    const std::string resumeErr = tmp.path + "/resume.err";
    const std::string args = "sweep '" + manifest + "' -j 2";

    ASSERT_EQ(runCli("GS_SWEEP_DIR='" + tmp.path + "/clean'", args,
                     cleanOut, errFile),
              0)
        << slurp(errFile);
    const std::string clean = slurp(cleanOut);
    ASSERT_FALSE(clean.empty());

    // SIGKILL semantics right after the first point commits: the
    // process dies with _Exit(137), no flushing, exactly one journaled
    // point behind.
    const std::string dir = "GS_SWEEP_DIR='" + tmp.path + "/crash'";
    const int status =
        runCli(dir + " GS_FAULT=sweep:point-crash:1:0", args, crashOut,
               errFile);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 137);
    EXPECT_NE(slurp(errFile).find("injected point-crash"),
              std::string::npos);

    // --resume replays the journaled point and recomputes only the
    // rest: byte-identical stdout, and the engine line proves zero
    // completed points were re-simulated.
    ASSERT_EQ(runCli(dir, args + " --resume", resumeOut, resumeErr), 0)
        << slurp(resumeErr);
    EXPECT_EQ(slurp(resumeOut), clean);
    const std::string err = slurp(resumeErr);
    EXPECT_NE(err.find("replayed=1 computed=3 failed=0"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("engine: 3 simulations"), std::string::npos)
        << err;
    EXPECT_NE(err.find("sweep_resumed_points 1"), std::string::npos)
        << err;
}

TEST(SweepCli, ExpandIsADryRun)
{
    TempDir tmp;
    const std::string manifest = tmp.path + "/m.json";
    {
        std::ofstream f(manifest);
        f << kManifestText;
    }
    const std::string out = tmp.path + "/out";
    const std::string err = tmp.path + "/err";
    const std::string sweepDir = tmp.path + "/sweeps";
    ASSERT_EQ(runCli("GS_SWEEP_DIR='" + sweepDir + "'",
                     "sweep '" + manifest + "' --expand", out, err),
              0)
        << slurp(err);
    const std::string text = slurp(out);
    EXPECT_NE(text.find("4 point(s)"), std::string::npos);
    EXPECT_NE(text.find("workload=BP mode=gscalar"), std::string::npos);
    // A dry run never creates campaign state.
    EXPECT_FALSE(fs::exists(sweepDir));

    // Malformed manifests and unknown flags fail fast.
    EXPECT_NE(runCli("", "sweep '" + manifest + "' --bogus", out, err),
              0);
    const std::string badManifest = tmp.path + "/bad.json";
    {
        std::ofstream f(badManifest);
        f << "{\"schema\":\"nope\"}";
    }
    EXPECT_NE(runCli("", "sweep '" + badManifest + "'", out, err), 0);
    EXPECT_NE(runCli("", "sweep", out, err), 0);
}
