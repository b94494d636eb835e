// Growable double-ended FIFO over one power-of-two ring buffer.
//
// The simulator's one queue type: qdisc FIFOs, ACK batches, retransmit
// queues and windowed filters. Unlike std::deque it allocates nothing at
// construction, keeps its single buffer across pops (capacity settles at
// the high-water mark, so a steady-state queue allocates nothing), and
// grows by doubling with elements moved into raw storage: spare slots are
// never value-initialised. pop_front()/pop_back() destroy the element at
// once, so a queue releases what its packets hold (shared_ptrs) as they
// leave, not when the slot is reused.
//
// Random-access iterators run front to back (std::sort works on them);
// any push or pop invalidates them.
#pragma once

#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace quicsteps::sim {

template <typename T>
class RingQueue {
  template <bool Const>
  class Iter;

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  RingQueue() = default;
  RingQueue(const RingQueue& other) {
    if (other.size_ == 0) return;
    reallocate(capacity_for(other.size_));
    for (const T& value : other) push_back(value);
  }
  RingQueue(RingQueue&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingQueue& operator=(RingQueue other) noexcept {
    swap(other);
    return *this;
  }
  ~RingQueue() {
    clear();
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, capacity_);
  }

  void swap(RingQueue& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  T& front() { return data_[head_]; }
  const T& front() const { return data_[head_]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }
  /// i-th element from the front.
  T& operator[](std::size_t i) { return data_[(head_ + i) & (capacity_ - 1)]; }
  const T& operator[](std::size_t i) const {
    return data_[(head_ + i) & (capacity_ - 1)];
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) reallocate(capacity_for(size_ + 1));
    T* slot = std::construct_at(&data_[(head_ + size_) & (capacity_ - 1)],
                                std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  void push_front(T value) {
    if (size_ == capacity_) reallocate(capacity_for(size_ + 1));
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    std::construct_at(&data_[head_], std::move(value));
    ++size_;
  }

  void pop_front() {
    std::destroy_at(&data_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }
  void pop_back() {
    std::destroy_at(&back());
    --size_;
  }
  /// Destroys every element; the buffer (and its capacity) stays.
  void clear() {
    while (size_ > 0) pop_back();
    head_ = 0;
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  // The first buffer holds a whole initial window (10 packets): starting
  // at 8, each fabric flow's fq_codel queue regrew at start-up and set-up
  // requested more bytes per flow than the std::deque did.
  static constexpr std::size_t kMinCapacity = 16;

  static std::size_t capacity_for(std::size_t n) {
    std::size_t capacity = kMinCapacity;
    while (capacity < n) capacity *= 2;
    return capacity;
  }

  /// Moves the elements, front first, into a fresh buffer of `capacity`.
  void reallocate(std::size_t capacity) {
    std::allocator<T> alloc;
    T* fresh = alloc.allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      std::construct_at(&fresh[i], std::move(old));
      std::destroy_at(&old);
    }
    if (data_ != nullptr) alloc.deallocate(data_, capacity_);
    data_ = fresh;
    capacity_ = capacity;
    head_ = 0;
  }

  template <bool Const>
  class Iter {
    using Queue = std::conditional_t<Const, const RingQueue, RingQueue>;

   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    Iter(Queue* queue, std::size_t index) : queue_(queue), index_(index) {}

    reference operator*() const { return (*queue_)[index_]; }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }

    Iter& operator++() { ++index_; return *this; }
    Iter operator++(int) { Iter it = *this; ++index_; return it; }
    Iter& operator--() { --index_; return *this; }
    Iter operator--(int) { Iter it = *this; --index_; return it; }
    Iter& operator+=(difference_type n) {
      index_ += static_cast<std::size_t>(n);  // wraps for n < 0
      return *this;
    }
    Iter& operator-=(difference_type n) { return *this += -n; }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.index_ == b.index_;
    }
    friend auto operator<=>(const Iter& a, const Iter& b) {
      return a.index_ <=> b.index_;
    }

   private:
    Queue* queue_ = nullptr;
    std::size_t index_ = 0;
  };

  T* data_ = nullptr;
  std::size_t capacity_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace quicsteps::sim
