/**
 * @file
 * Reproduces the §VI-C TCO analysis: sellable instances per server and
 * cost per instance for the SPDK-vhost and BM-Store deployments.
 *
 * `--fleet-json=PATH` additionally re-runs the model at fleet scale,
 * fed by the measurements `bench/ext_fleet` wrote to BENCH_fleet.json:
 * the fleet's card count maps to servers (4 cards per server, the
 * paper's deployment shape), the admitted tenants are the sellable
 * instances actually placed, and the measured rolling-upgrade I/O
 * pause is compared against a take-the-instance-down baseline to
 * price the downtime a transparent hot upgrade avoids fleet-wide.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/tco.hh"

using namespace bms;

namespace {

void
fleetScaleTco(const std::string &path)
{
    harness::JsonNumbers doc;
    if (std::string err = harness::readJson(path, doc); !err.empty()) {
        std::fprintf(stderr, "tco_analysis: %s\n", err.c_str());
        std::exit(1);
    }
    auto field = [&](const char *key) {
        auto it = doc.find(key);
        if (it == doc.end()) {
            std::fprintf(stderr,
                         "tco_analysis: %s has no number at '%s' "
                         "(expected ext_fleet output)\n",
                         path.c_str(), key);
            std::exit(1);
        }
        return it->second;
    };
    double cards = field("cards");
    double ssds_per_card = field("ssdsPerCard");
    double tenants = field("tenantsPlaced");
    double requested = field("tenantsRequested");
    double io_pause_ms = field("wave.ioPauseMsMax");
    double makespan_ms = field("wave.makespanMs");

    harness::TcoInputs in;
    harness::TcoComparison cmp = harness::compareTco(in);
    harness::TcoResult spdk = harness::tcoSpdk(in);
    harness::TcoResult bms = harness::tcoBmStore(in);

    // Paper deployment shape: 4 cards per server. The per-server
    // sellable-instance delta compounds across the fleet.
    int servers =
        static_cast<int>((cards + 3) / 4);
    int fleet_spdk = servers * spdk.sellableInstances;
    int fleet_bms = servers * bms.sellableInstances;

    // Rolling-upgrade downtime avoided: without a transparent hot
    // upgrade, a firmware roll means draining (or rebooting) every
    // tenant on the card — conservatively a 300 s outage per tenant
    // per wave. BM-Store's measured worst tenant-visible pause is the
    // wave's ioPauseMsMax.
    const double baseline_outage_s = 300.0;
    double pause_s = io_pause_ms / 1e3;
    double avoided_s =
        tenants * (baseline_outage_s - pause_s);
    double avoided_tenant_hours = avoided_s / 3600.0;

    harness::Table t({"fleet", "servers", "sellable instances",
                      "cost / instance"});
    t.addRow({"SPDK vhost", harness::Table::fmtInt(servers),
              harness::Table::fmtInt(fleet_spdk),
              harness::Table::fmt(spdk.costPerInstance, 4)});
    t.addRow({"BM-Store", harness::Table::fmtInt(servers),
              harness::Table::fmtInt(fleet_bms),
              harness::Table::fmt(bms.costPerInstance, 4)});
    t.print("fleet-scale TCO — " + std::to_string(static_cast<int>(cards)) +
            " cards (" + std::to_string(static_cast<int>(tenants)) + "/" +
            std::to_string(static_cast<int>(requested)) +
            " tenants placed)");

    std::printf("\nfleet sells %d more instances (%.1f%%), per-instance "
                "TCO down %.1f%%\n",
                fleet_bms - fleet_spdk, cmp.moreInstancesPct,
                cmp.tcoReductionPct);
    std::printf("rolling upgrade: makespan %.1f s for %d slots, worst "
                "tenant pause %.1f ms\n",
                makespan_ms / 1e3,
                static_cast<int>(cards * ssds_per_card), io_pause_ms);
    std::printf("downtime avoided vs %.0f s take-down baseline: "
                "%.0f tenant-hours per fleet-wide wave\n",
                baseline_outage_s, avoided_tenant_hours);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string fleetJson;
    harness::Flags("tco_analysis")
        .text("--fleet-json", fleetJson)
        .parse(argc, argv);

    harness::TcoInputs in;
    harness::TcoResult spdk = harness::tcoSpdk(in);
    harness::TcoResult bms = harness::tcoBmStore(in);
    harness::TcoComparison cmp = harness::compareTco(in);

    harness::Table t({"deployment", "usable HT", "sellable instances",
                      "server cost", "cost / instance"});
    t.addRow({"SPDK vhost (16 polling cores)",
              harness::Table::fmtInt(in.serverHt - in.vhostDedicatedHt),
              harness::Table::fmtInt(spdk.sellableInstances),
              harness::Table::fmt(spdk.serverCost, 3),
              harness::Table::fmt(spdk.costPerInstance, 4)});
    t.addRow({"BM-Store (4 cards, +3% HW)",
              harness::Table::fmtInt(in.serverHt),
              harness::Table::fmtInt(bms.sellableInstances),
              harness::Table::fmt(bms.serverCost, 3),
              harness::Table::fmt(bms.costPerInstance, 4)});
    t.print("§VI-C — TCO analysis (server: 128 HT / 1024 GB / 16 SSDs; "
            "instance: 8 HT / 64 GB / 1 SSD)");

    std::printf("\nBM-Store sells %.1f%% more instances and reduces "
                "per-instance TCO by %.1f%%\n",
                cmp.moreInstancesPct, cmp.tcoReductionPct);
    std::printf("paper reference: 14.3%% more instances per server, at "
                "least 11.3%% TCO reduction.\n");

    if (!fleetJson.empty()) {
        std::printf("\n");
        fleetScaleTco(fleetJson);
    }
    return 0;
}
