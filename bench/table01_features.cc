/**
 * @file
 * Reproduces paper Table I: the qualitative feature matrix of local
 * storage techniques. For the two schemes implemented in this
 * repository as executable models (SPDK vhost and BM-Store) each
 * check mark is backed by a measurable artifact, cited in the notes.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/runner.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    harness::Flags("table01_features").parse(argc, argv);
    harness::Table t({"property", "MDev", "SPDK vhost", "SR-IOV",
                      "LeapIO", "FVM", "BM-Store"});
    t.addRow({"Host efficiency", "-", "-", "yes", "yes", "yes", "yes"});
    t.addRow({"Compatibility", "yes", "yes", "-", "yes", "yes", "yes"});
    t.addRow({"Transparency", "-", "-", "yes", "-", "-", "yes"});
    t.addRow({"Performance", "yes", "yes", "yes", "-", "yes", "yes"});
    t.addRow({"Deployability", "yes", "yes", "yes", "-", "-", "yes"});
    t.addRow({"Manageability", "-", "-", "-", "-", "-", "yes"});
    t.print("Table I — features of existing local storage techniques");

    std::printf(
        "\nevidence in this repository for the two modeled schemes:\n"
        "  host efficiency : SPDK vhost burns 1-16 dedicated cores "
        "(fig01, tco_analysis); BM-Store zero (fig08)\n"
        "  compatibility   : BM-Store serves NVMe SSDs, SATA HDDs, ZNS "
        "and remote volumes (compat_sata_hdd, ext_remote_storage, "
        "zns tests)\n"
        "  transparency    : stock NVMe driver on every kernel "
        "(table06); vhost needs virtio + a host-side target\n"
        "  performance     : ~3 us constant overhead vs native (fig08); "
        "vhost collapses on seq-r-256 (fig09)\n"
        "  deployability   : no host software at all; the control "
        "plane rides MCTP out of band (out_of_band_mgmt example)\n"
        "  manageability   : remote namespace mgmt, I/O monitor, "
        "hot-upgrade, hot-plug (fig15, mgmt tests)\n");
    return 0;
}
