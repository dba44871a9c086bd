//! Without `CountingAlloc` installed, measuring must fail loudly rather
//! than report zero allocations for code it never observed.

#[test]
#[should_panic(expected = "is not this binary's #[global_allocator]")]
fn count_without_the_allocator_panics() {
    let _ = bc_testkit::count_allocs(|| vec![0u8; 8]);
}
