#ifndef RLZ_TESTS_GATED_ARCHIVE_H_
#define RLZ_TESTS_GATED_ARCHIVE_H_

// An archive that serves another one, except that a Get (or GetRange) of
// one chosen id decodes and then blocks until Release(): a decode that
// takes exactly as long as a test wants, so it can hold one request in a
// worker and check what the rest of the serving stack does meanwhile.
// The bytes are read before the block, so a held decode of a live
// store's document returns what that document was when the decode
// started, even if it was deleted meanwhile.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>

#include "store/archive.h"

namespace rlz {

class GatedArchive : public Archive {
 public:
  GatedArchive(const Archive* inner, size_t gated_id)
      : inner_(inner), gated_id_(gated_id) {}

  std::string name() const override { return "gated-" + inner_->name(); }
  size_t num_docs() const override { return inner_->num_docs(); }
  uint64_t stored_bytes() const override { return inner_->stored_bytes(); }
  Status Save(const std::string&) const override {
    return Status::InvalidArgument("a gated archive is not saved");
  }

  const ShardedStore* live_store() const override {
    return inner_->live_store();
  }

  Status Get(size_t id, std::string* doc, SimDisk* disk,
             DecodeScratch* scratch) const override {
    Status status = inner_->Get(id, doc, disk, scratch);
    if (id == gated_id_) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return status;
  }

  // True once a Get of the gated id has started (and is blocked, unless
  // released); false if none started within `timeout`.
  bool WaitEntered(std::chrono::milliseconds timeout =
                       std::chrono::seconds(30)) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return entered_; });
  }

  // Lets every blocked and future Get of the gated id through.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const Archive* inner_;
  const size_t gated_id_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

// Releases the gate when it goes out of scope, so a failed assertion
// cannot leave a worker blocked while the service shuts down. Declare it
// after the objects whose teardown waits on the worker.
class ReleaseOnExit {
 public:
  explicit ReleaseOnExit(GatedArchive* gate) : gate_(gate) {}
  ~ReleaseOnExit() { gate_->Release(); }
  ReleaseOnExit(const ReleaseOnExit&) = delete;
  ReleaseOnExit& operator=(const ReleaseOnExit&) = delete;

 private:
  GatedArchive* gate_;
};

}  // namespace rlz

#endif  // RLZ_TESTS_GATED_ARCHIVE_H_
