/**
 * @file
 * Unit tests of the reusable NVMe controller state machine
 * (nvme::ControllerModel): register file, admin bring-up, queue
 * management, SQE fetch, CQE posting with phase tags, pause/resume.
 */

#include <gtest/gtest.h>

#include "nvme/controller.hh"
#include "tests/test_util.hh"

using namespace bms;
using nvme::AdminOpcode;
using nvme::Cqe;
using nvme::Sqe;
using nvme::Status;

namespace {

/** Controller that completes every I/O after a fixed delay. */
class EchoController : public nvme::ControllerModel
{
  public:
    EchoController(sim::Simulator &sim, Config cfg)
        : ControllerModel(sim, "echo", cfg)
    {}

    int ioSeen = 0;
    sim::Tick ioDelay = 0;
    bool holdIo = false;
    std::vector<std::pair<std::uint16_t, std::uint16_t>> held;

  protected:
    void
    executeIo(const Sqe &sqe, std::uint16_t sqid) override
    {
        ++ioSeen;
        if (holdIo) {
            held.emplace_back(sqid, sqe.cid);
            return;
        }
        if (ioDelay == 0) {
            complete(sqid, sqe.cid, Status::Success);
        } else {
            schedule(ioDelay, [this, sqid, cid = sqe.cid] {
                complete(sqid, cid, Status::Success);
            });
        }
    }
};

/** Driver-side shim: admin ring in fake host memory. */
class Harness
{
  public:
    sim::Simulator sim{7};
    test::FakeUpstream up{sim};
    EchoController *ctrl;

    std::uint64_t asq = 0x10000, acq = 0x20000;
    std::uint16_t sq_tail = 0, cq_head = 0;
    bool phase = true;
    std::uint16_t next_cid = 0;

    std::uint64_t io_sq = 0x30000, io_cq = 0x40000;
    std::uint16_t io_depth = 64;
    std::uint16_t io_tail = 0, io_head = 0;
    bool io_phase = true;

    explicit Harness(int max_queues = 8)
    {
        nvme::ControllerModel::Config cfg;
        cfg.fn = 3;
        cfg.maxIoQueues = static_cast<std::uint16_t>(max_queues);
        ctrl = sim.make<EchoController>(sim, cfg);
        ctrl->setUpstream(&up);
        nvme::NamespaceInfo ns;
        ns.nsid = 1;
        ns.sizeBlocks = 1 << 20;
        ctrl->addNamespace(ns);
        enable();
    }

    void
    enable()
    {
        ctrl->regWrite(nvme::kRegAqa, (31ull << 16) | 31);
        ctrl->regWrite(nvme::kRegAsq, asq);
        ctrl->regWrite(nvme::kRegAcq, acq);
        ctrl->regWrite(nvme::kRegCc, nvme::kCcEnable);
    }

    std::uint16_t
    adminSubmit(Sqe sqe)
    {
        sqe.cid = next_cid++;
        std::uint8_t raw[64];
        nvme::toBytes(sqe, raw);
        up.memory.write(asq + sq_tail * 64ull, 64, raw);
        sq_tail = static_cast<std::uint16_t>((sq_tail + 1) % 32);
        ctrl->regWrite(nvme::sqDoorbellOffset(0), sq_tail);
        return sqe.cid;
    }

    /** Pop the next admin CQE if present. */
    bool
    adminPoll(Cqe &out)
    {
        std::uint8_t raw[16];
        up.memory.read(acq + cq_head * 16ull, 16, raw);
        Cqe cqe = nvme::fromBytes<Cqe>(raw);
        if (cqe.phase() != phase)
            return false;
        cq_head = static_cast<std::uint16_t>((cq_head + 1) % 32);
        if (cq_head == 0)
            phase = !phase;
        ctrl->regWrite(nvme::cqDoorbellOffset(0), cq_head);
        out = cqe;
        return true;
    }

    Cqe
    adminRoundTrip(Sqe sqe)
    {
        adminSubmit(sqe);
        Cqe cqe;
        EXPECT_TRUE(test::runUntil(sim, [&] { return adminPoll(cqe); }));
        return cqe;
    }

    void
    createIoQueues()
    {
        Sqe ccq;
        ccq.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoCq);
        ccq.prp1 = io_cq;
        ccq.cdw10 = (static_cast<std::uint32_t>(io_depth - 1) << 16) | 1;
        ccq.cdw11 = (1u << 16) | 0x3;
        EXPECT_TRUE(adminRoundTrip(ccq).ok());
        Sqe csq;
        csq.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoSq);
        csq.prp1 = io_sq;
        csq.cdw10 = (static_cast<std::uint32_t>(io_depth - 1) << 16) | 1;
        csq.cdw11 = (1u << 16) | 0x1;
        EXPECT_TRUE(adminRoundTrip(csq).ok());
    }

    void
    ioSubmit(std::uint16_t cid)
    {
        Sqe sqe;
        sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::Read);
        sqe.nsid = 1;
        sqe.cid = cid;
        sqe.prp1 = 0x80000;
        sqe.setSlba(0);
        sqe.setNlb(1);
        std::uint8_t raw[64];
        nvme::toBytes(sqe, raw);
        up.memory.write(io_sq + io_tail * 64ull, 64, raw);
        io_tail = static_cast<std::uint16_t>((io_tail + 1) % io_depth);
        ctrl->regWrite(nvme::sqDoorbellOffset(1), io_tail);
    }

    bool
    ioPoll(Cqe &out)
    {
        std::uint8_t raw[16];
        up.memory.read(io_cq + io_head * 16ull, 16, raw);
        Cqe cqe = nvme::fromBytes<Cqe>(raw);
        if (cqe.phase() != io_phase)
            return false;
        io_head = static_cast<std::uint16_t>((io_head + 1) % io_depth);
        if (io_head == 0)
            io_phase = !io_phase;
        out = cqe;
        return true;
    }
};

} // namespace

TEST(Controller, EnableSetsReady)
{
    Harness h;
    EXPECT_TRUE(h.ctrl->enabled());
    EXPECT_EQ(h.ctrl->regRead(nvme::kRegCsts), nvme::kCstsReady);
}

TEST(Controller, DisableClearsState)
{
    Harness h;
    h.ctrl->regWrite(nvme::kRegCc, 0);
    EXPECT_FALSE(h.ctrl->enabled());
    EXPECT_EQ(h.ctrl->regRead(nvme::kRegCsts), 0u);
}

TEST(Controller, IdentifyControllerReportsModel)
{
    Harness h;
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(AdminOpcode::Identify);
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Controller);
    id.prp1 = 0x50000;
    Cqe cqe = h.adminRoundTrip(id);
    EXPECT_TRUE(cqe.ok());
    std::uint8_t model[40];
    h.up.memory.read(0x50000 + 24, 40, model);
    EXPECT_EQ(std::string(reinterpret_cast<char *>(model), 12),
              "BMS-SIM-CTRL");
}

TEST(Controller, IdentifyNamespaceReportsSize)
{
    Harness h;
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(AdminOpcode::Identify);
    id.nsid = 1;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = 0x50000;
    EXPECT_TRUE(h.adminRoundTrip(id).ok());
    std::uint64_t nsze = 0;
    h.up.memory.read(0x50000,  8, reinterpret_cast<std::uint8_t *>(&nsze));
    EXPECT_EQ(nsze, 1u << 20);
}

TEST(Controller, IdentifyUnknownNamespaceFails)
{
    Harness h;
    Sqe id;
    id.opcode = static_cast<std::uint8_t>(AdminOpcode::Identify);
    id.nsid = 42;
    id.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::Namespace);
    id.prp1 = 0x50000;
    EXPECT_EQ(h.adminRoundTrip(id).status(), Status::InvalidNamespace);
}

TEST(Controller, UnknownAdminOpcodeRejected)
{
    Harness h;
    Sqe bad;
    bad.opcode = 0x7F;
    EXPECT_EQ(h.adminRoundTrip(bad).status(), Status::InvalidOpcode);
}

TEST(Controller, CreateQueueValidatesQid)
{
    Harness h(4);
    Sqe ccq;
    ccq.opcode = static_cast<std::uint8_t>(AdminOpcode::CreateIoCq);
    ccq.prp1 = 0x90000;
    ccq.cdw10 = (63u << 16) | 99; // qid out of range
    EXPECT_EQ(h.adminRoundTrip(ccq).status(), Status::InvalidField);
}

TEST(Controller, IoCommandsFlowAndComplete)
{
    Harness h;
    h.createIoQueues();
    for (std::uint16_t i = 0; i < 10; ++i)
        h.ioSubmit(i);
    int completed = 0;
    EXPECT_TRUE(test::runUntil(h.sim, [&] {
        Cqe cqe;
        while (h.ioPoll(cqe)) {
            EXPECT_TRUE(cqe.ok());
            EXPECT_EQ(cqe.sqId, 1);
            ++completed;
        }
        return completed == 10;
    }));
    EXPECT_EQ(h.ctrl->ioSeen, 10);
    EXPECT_EQ(h.ctrl->readOps(), 10u);
    // One MSI per completion on vector 1, fn 3.
    int io_irqs = 0;
    for (auto &[fn, vec] : h.up.interrupts) {
        if (vec == 1) {
            EXPECT_EQ(fn, 3);
            ++io_irqs;
        }
    }
    EXPECT_EQ(io_irqs, 10);
}

TEST(Controller, PhaseFlipsOnWrap)
{
    Harness h;
    h.createIoQueues();
    // Submit more than the queue depth in waves to force CQ wrap.
    int completed = 0;
    for (int wave = 0; wave < 3; ++wave) {
        for (std::uint16_t i = 0; i < 40; ++i)
            h.ioSubmit(static_cast<std::uint16_t>(wave * 40 + i));
        EXPECT_TRUE(test::runUntil(h.sim, [&] {
            Cqe cqe;
            while (h.ioPoll(cqe)) {
                EXPECT_TRUE(cqe.ok());
                ++completed;
            }
            return completed == (wave + 1) * 40;
        }));
    }
    EXPECT_EQ(completed, 120);
}

TEST(Controller, PauseFetchHoldsCommands)
{
    Harness h;
    h.createIoQueues();
    h.ctrl->pauseFetch();
    h.ioSubmit(0);
    h.ioSubmit(1);
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(h.ctrl->ioSeen, 0);

    h.ctrl->resumeFetch();
    EXPECT_TRUE(
        test::runUntil(h.sim, [&] { return h.ctrl->ioSeen == 2; }));
}

// A doorbell value that is not a slot of its queue is ignored and
// counted: it neither moves the SQ tail (no fetch) nor the CQ head,
// and the queue keeps working afterwards.
TEST(Controller, OutOfRangeDoorbellsAreIgnored)
{
    Harness h;
    h.createIoQueues();
    h.ctrl->regWrite(nvme::sqDoorbellOffset(1), h.io_depth);
    h.ctrl->regWrite(nvme::cqDoorbellOffset(1), h.io_depth + 3u);
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(h.ctrl->ioSeen, 0);
    EXPECT_EQ(h.ctrl->sqSnapshot(1).backlog, 0u);
    EXPECT_EQ(h.ctrl->invalidDoorbells(), 2u);

    h.ioSubmit(0);
    Cqe cqe;
    EXPECT_TRUE(test::runUntil(h.sim, [&] { return h.ioPoll(cqe); }));
    EXPECT_TRUE(cqe.ok());
    EXPECT_EQ(h.ctrl->ioSeen, 1);
}

TEST(Controller, InflightTracksOutstanding)
{
    Harness h;
    h.createIoQueues();
    h.ctrl->holdIo = true;
    for (std::uint16_t i = 0; i < 5; ++i)
        h.ioSubmit(i);
    EXPECT_TRUE(test::runUntil(h.sim, [&] { return h.ctrl->ioSeen == 5; }));
    EXPECT_EQ(h.ctrl->inflight(), 5u);
    for (auto [sqid, cid] : h.ctrl->held)
        h.ctrl->complete(sqid, cid, Status::Success);
    EXPECT_EQ(h.ctrl->inflight(), 0u);
}

TEST(Controller, NamespaceAddRemove)
{
    Harness h;
    nvme::NamespaceInfo ns;
    ns.nsid = 7;
    ns.sizeBlocks = 100;
    h.ctrl->addNamespace(ns);
    EXPECT_NE(h.ctrl->findNamespace(7), nullptr);
    h.ctrl->removeNamespace(7);
    EXPECT_EQ(h.ctrl->findNamespace(7), nullptr);
}

TEST(Controller, SetFeaturesGrantsQueues)
{
    Harness h(16);
    Sqe sf;
    sf.opcode = static_cast<std::uint8_t>(AdminOpcode::SetFeatures);
    sf.cdw10 = 0x07;
    Cqe cqe = h.adminRoundTrip(sf);
    EXPECT_TRUE(cqe.ok());
    EXPECT_EQ(cqe.dw0 & 0xffff, 15u);
    EXPECT_EQ(cqe.dw0 >> 16, 15u);
}
