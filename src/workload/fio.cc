#include "workload/fio.hh"


#include "nvme/defs.hh"

namespace bms::workload {

namespace {

FioJobSpec
makeSpec(FioPattern pattern, std::uint32_t bs, int qd, int jobs,
         const char *name)
{
    FioJobSpec s;
    s.pattern = pattern;
    s.blockSize = bs;
    s.iodepth = qd;
    s.numjobs = jobs;
    s.caseName = name;
    return s;
}

} // namespace

FioJobSpec
fioRandR1()
{
    return makeSpec(FioPattern::RandRead, 4096, 1, 4, "rand-r-1");
}

FioJobSpec
fioRandR128()
{
    return makeSpec(FioPattern::RandRead, 4096, 128, 4, "rand-r-128");
}

FioJobSpec
fioRandW1()
{
    return makeSpec(FioPattern::RandWrite, 4096, 1, 4, "rand-w-1");
}

FioJobSpec
fioRandW16()
{
    return makeSpec(FioPattern::RandWrite, 4096, 16, 4, "rand-w-16");
}

FioJobSpec
fioSeqR256()
{
    return makeSpec(FioPattern::SeqRead, 128 * 1024, 256, 4, "seq-r-256");
}

FioJobSpec
fioSeqW256()
{
    return makeSpec(FioPattern::SeqWrite, 128 * 1024, 256, 4, "seq-w-256");
}

std::vector<FioJobSpec>
fioTableIv()
{
    return {fioRandR1(), fioRandR128(), fioRandW1(),
            fioRandW16(), fioSeqR256(), fioSeqW256()};
}

FioRunner::FioRunner(sim::Simulator &sim, std::string name,
                     host::BlockDeviceIf &dev, FioJobSpec spec)
    : SimObject(sim, std::move(name)),
      _dev(dev),
      _spec(spec),
      _rng(sim.rng().fork())
{
    BMS_ASSERT(_spec.numjobs >= 1 && _spec.iodepth >= 1,
               "fio spec needs at least one job and queue slot");
    _result.caseName = _spec.caseName;
}

void
FioRunner::start(std::function<void()> done)
{
    BMS_ASSERT(!_running, "fio runner started twice");
    // Validate the spec before any I/O is generated: a malformed spec
    // must fail loudly here, not silently misbehave (e.g. a readRatio
    // of 1.3 would quietly become an all-read workload, an unaligned
    // blockSize would panic deep inside the NVMe driver instead).
    BMS_ASSERT(_spec.iodepth >= 1, "fio spec: iodepth must be >= 1, got ",
               _spec.iodepth);
    BMS_ASSERT(_spec.numjobs >= 1, "fio spec: numjobs must be >= 1, got ",
               _spec.numjobs);
    BMS_ASSERT(_spec.blockSize > 0 && _spec.blockSize % 512 == 0,
               "fio spec: blockSize must be a nonzero multiple of 512, "
               "got ", _spec.blockSize);
    BMS_ASSERT(_spec.readRatio >= 0.0 && _spec.readRatio <= 1.0,
               "fio spec: readRatio must be in [0, 1], got ",
               _spec.readRatio);
    _done = std::move(done);
    _running = true;

    std::uint64_t region = _spec.regionBytes ? _spec.regionBytes
                                             : _dev.capacityBytes();
    std::uint64_t region_blocks = region / _spec.blockSize;
    BMS_ASSERT(region_blocks >= static_cast<std::uint64_t>(_spec.numjobs),
               "region too small for job count");

    // Jobs carve the region into equal slices, like fio files.
    std::uint64_t per_job = region_blocks / _spec.numjobs;
    _jobs.resize(static_cast<std::size_t>(_spec.numjobs));
    for (int j = 0; j < _spec.numjobs; ++j) {
        Job &job = _jobs[static_cast<std::size_t>(j)];
        job.runner = this;
        job.index = j;
        job.regionStart = static_cast<std::uint64_t>(j) * per_job;
        job.regionBlocks = per_job;
        job.nextSeq = 0;
    }

    _measureStart = now() + _spec.rampTime;
    _measureEnd = _measureStart + _spec.runTime;
    schedule(_spec.rampTime + _spec.runTime, [this] {
        _stopping = true;
        if (_outstandingTotal == 0) {
            _finished = true;
            if (_done)
                _done();
        }
    });

    for (auto &job : _jobs) {
        for (int d = 0; d < _spec.iodepth; ++d)
            issue(job);
    }
}

bool
FioRunner::isRead(Job &job)
{
    (void)job;
    switch (_spec.pattern) {
      case FioPattern::RandRead:
      case FioPattern::SeqRead:
        return true;
      case FioPattern::RandWrite:
      case FioPattern::SeqWrite:
        return false;
      case FioPattern::RandRw:
        return _rng.chance(_spec.readRatio);
    }
    return true;
}

std::uint64_t
FioRunner::pickOffset(Job &job)
{
    std::uint64_t block;
    switch (_spec.pattern) {
      case FioPattern::SeqRead:
      case FioPattern::SeqWrite:
        block = job.nextSeq;
        job.nextSeq = (job.nextSeq + 1) % job.regionBlocks;
        break;
      default:
        block = _rng.uniformInt(0, job.regionBlocks - 1);
        break;
    }
    return (job.regionStart + block) * _spec.blockSize;
}

void
FioRunner::issue(Job &job)
{
    if (_stopping)
        return;
    host::BlockRequest req;
    req.op = isRead(job) ? host::BlockRequest::Op::Read
                         : host::BlockRequest::Op::Write;
    req.offset = pickOffset(job);
    req.len = _spec.blockSize;
    req.queueHint = job.index;
    // The job and the submit tick are all the completion needs: 16
    // bytes, which std::function keeps inline.
    sim::Tick submitted = now();
    Job *jp = &job;
    req.done = [jp, submitted](bool ok) {
        jp->runner->onDone(*jp, submitted, ok);
    };
    ++job.outstanding;
    ++_outstandingTotal;
    _dev.submit(std::move(req));
}

void
FioRunner::onDone(Job &job, sim::Tick submitted, bool ok)
{
    --job.outstanding;
    --_outstandingTotal;
    if (!ok)
        ++_result.errors;

    if (now() >= _measureStart && now() <= _measureEnd) {
        _result.latency.add(now() - submitted);
        ++_measuredOps;
        _measuredBytes += _spec.blockSize;
        if (onCompletion)
            onCompletion(now(), _spec.blockSize);
    }

    if (_stopping) {
        if (_outstandingTotal == 0 && !_finished) {
            double secs = sim::toSec(_spec.runTime);
            _result.iops = static_cast<double>(_measuredOps) / secs;
            _result.mbPerSec =
                static_cast<double>(_measuredBytes) / 1e6 / secs;
            _result.completed = _measuredOps;
            _finished = true;
            if (_done)
                _done();
        }
        return;
    }
    issue(job);
}

} // namespace bms::workload
