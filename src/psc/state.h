// World state of the PSC chain: account balances/nonces plus per-contract
// key-value storage (the EVM storage model, 32-byte keys and values).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/uint256.h"
#include "psc/address.h"

namespace btcfast::psc {

/// Native token amounts (think gwei; 64 bits is plenty for the simulator).
using Value = std::uint64_t;

struct AccountState {
  Value balance = 0;
  std::uint64_t nonce = 0;

  bool operator==(const AccountState&) const noexcept = default;
};

/// 32-byte storage slot key/value.
using Slot = crypto::U256;

class WorldState {
 public:
  // --- accounts ---
  [[nodiscard]] Value balance(const Address& a) const;
  [[nodiscard]] std::uint64_t nonce(const Address& a) const;
  void set_balance(const Address& a, Value v) {
    note_account(a);
    accounts_[a].balance = v;
  }
  void add_balance(const Address& a, Value v) {
    note_account(a);
    accounts_[a].balance += v;
  }
  /// Returns false (and leaves state unchanged) on insufficient funds.
  [[nodiscard]] bool sub_balance(const Address& a, Value v);
  void bump_nonce(const Address& a) {
    note_account(a);
    ++accounts_[a].nonce;
  }

  // --- transaction journal ---
  // Cheap revert for transaction execution: instead of deep-copying the
  // whole world (which scales with total accounts × storage — ruinous
  // under a mass-dispute storm), record the pre-image of every account
  // and slot the transaction touches and undo them in reverse order.
  // Frames nest: each journal_begin() pushes a mark, and commit/revert
  // close the innermost frame. An inner commit keeps its records in the
  // enclosing frame, so an outer revert still undoes them.
  /// Open a frame: record pre-images from here on.
  void journal_begin();
  /// Close the innermost frame and keep its changes (the outermost commit
  /// drops the records).
  void journal_commit() noexcept;
  /// Close the innermost frame and roll every mutation since its
  /// journal_begin() back, restoring the exact map contents — entries
  /// (and contract storage maps) created since then are erased, not
  /// zeroed.
  void journal_revert();
  /// Open frames.
  [[nodiscard]] std::size_t journal_depth() const noexcept { return journal_marks_.size(); }

  // --- contract storage ---
  [[nodiscard]] Slot storage_load(const Address& contract, const Slot& key) const;
  /// Returns true iff the slot transitioned zero -> nonzero (for gas).
  bool storage_store(const Address& contract, const Slot& key, const Slot& value);

  [[nodiscard]] std::size_t account_count() const noexcept { return accounts_.size(); }

  /// Sum of every account balance. With PscChain::total_minted() this is
  /// the chain-wide value-conservation check: gas fees move to the fee
  /// sink and transfers move between accounts, so the sum must equal the
  /// total ever minted at all times (testkit invariant #1).
  [[nodiscard]] Value total_balance() const noexcept;

  /// Same accounts and contract storage, entry for entry (empty storage
  /// maps included); open journal frames are not compared.
  [[nodiscard]] bool operator==(const WorldState& o) const {
    return accounts_ == o.accounts_ && storage_ == o.storage_;
  }

 private:
  struct SlotKeyHasher {
    std::size_t operator()(const Slot& s) const noexcept {
      return static_cast<std::size_t>(s.w[0] ^ (s.w[1] * 0x9e3779b97f4a7c15ULL));
    }
  };
  using Storage = std::unordered_map<Slot, Slot, SlotKeyHasher>;

  struct Undo {
    enum class Kind : std::uint8_t { kAccount, kSlot };
    Kind kind;
    bool existed;   ///< entry was present before the mutation
    bool map_existed = true;  ///< kSlot: the contract's storage map was present
    Address addr;   ///< account, or owning contract for kSlot
    AccountState account{};  ///< pre-image (kAccount, existed)
    Slot key{};              ///< slot key (kSlot)
    Slot value{};            ///< pre-image (kSlot, existed)
  };

  void note_account(const Address& a);
  void note_slot(const Address& contract, const Slot& key);

  std::unordered_map<Address, AccountState, AddressHasher> accounts_;
  std::unordered_map<Address, Storage, AddressHasher> storage_;
  std::vector<Undo> journal_;
  std::vector<std::size_t> journal_marks_;  ///< journal_ size at each open frame
};

/// Scoped journal frame: opens on construction and, unless commit() or
/// revert() closed it first, reverts on destruction — so an exception
/// unwinding through the frame leaves the world as it found it. (A
/// revert that cannot allocate to re-insert an erased entry terminates:
/// a half-restored world must not outlive the frame.)
class JournalFrame {
 public:
  explicit JournalFrame(WorldState& state) : state_(&state) { state.journal_begin(); }
  ~JournalFrame() {
    if (state_ != nullptr) state_->journal_revert();
  }
  JournalFrame(const JournalFrame&) = delete;
  JournalFrame& operator=(const JournalFrame&) = delete;

  void commit() noexcept { std::exchange(state_, nullptr)->journal_commit(); }
  void revert() { std::exchange(state_, nullptr)->journal_revert(); }

 private:
  WorldState* state_;
};

}  // namespace btcfast::psc
